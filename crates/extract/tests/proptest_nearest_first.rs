//! Nearest-first attribution equals brute force: Algorithm 2 with the
//! grid returns exactly what `use_spatial_index: false` returns — the
//! same snapshot field by field, or the same error with the same
//! fields — on scenes built to stress the search's stopping rule.
//!
//! The generated scenes mix long thin boxes parallel to the line just
//! off a link end, boxes on a lattice whose edges fall on grid cell
//! boundaries, link ends far outside the grid's bounds, maps without
//! labels, labels beyond `label_distance_threshold`, exact distance
//! ties (duplicate boxes), `geometry_tolerance` 0, and near-vertical
//! and near-horizontal lines.

use proptest::prelude::*;
use wm_extract::{
    algorithm2_with, AttributionScratch, ExtractConfig, ExtractError, RawLabel, RawLink,
    RawObjects, RawRouter,
};
use wm_geometry::{Point, Polygon, Rect};
use wm_model::{Load, MapKind, Timestamp, TopologySnapshot};

/// splitmix64: a scene is a pure function of its seed.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A two-decimal value in `[lo, hi)`, as machine-written SVGs print.
    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        ((lo + (hi - lo) * self.unit()) * 100.0).round() / 100.0
    }

    fn pick(&mut self, options: &[f64]) -> f64 {
        options[self.below(options.len())]
    }
}

/// A triangular arrow whose basis (rear-edge midpoint) is `from`,
/// pointing at `toward`.
fn arrow(from: Point, toward: Point) -> Polygon {
    let (dx, dy) = (toward.x - from.x, toward.y - from.y);
    let len = (dx * dx + dy * dy).sqrt();
    let (ux, uy) = if len > 1e-6 {
        (dx / len, dy / len)
    } else {
        (1.0, 0.0)
    };
    let (px, py) = (-uy * 2.0, ux * 2.0);
    Polygon::new(vec![
        Point::new(from.x + px, from.y + py),
        Point::new(from.x + ux * 10.0, from.y + uy * 10.0),
        Point::new(from.x - px, from.y - py),
    ])
}

fn load(percent: u8) -> Load {
    Load::new(percent).expect("percent in range")
}

/// A point on (or just off) the boundary of `r`.
fn on_boundary(g: &mut Gen, r: &Rect) -> Point {
    let t = g.unit();
    let p = match g.below(4) {
        0 => Point::new(r.x + t * r.width, r.y),
        1 => Point::new(r.right(), r.y + t * r.height),
        2 => Point::new(r.x + t * r.width, r.bottom()),
        _ => Point::new(r.x, r.y + t * r.height),
    };
    if g.chance(0.4) {
        Point::new(p.x + g.range(-3.0, 3.0), p.y + g.range(-3.0, 3.0))
    } else {
        p
    }
}

fn scene(seed: u64) -> (RawObjects, ExtractConfig) {
    let mut g = Gen(seed);
    let mut objects = RawObjects::default();

    // Routers: random boxes, or an equal-size lattice whose box edges
    // fall on grid cell boundaries.
    let lattice = g.chance(0.3);
    let routers = 2 + g.below(14);
    let (lw, lh) = (g.pick(&[20.0, 40.0, 80.0]), g.pick(&[10.0, 20.0, 30.0]));
    for i in 0..routers {
        let rect = if lattice {
            let (col, row) = (i % 5, i / 5);
            Rect::new(col as f64 * 2.0 * lw, row as f64 * 2.0 * lh, lw, lh)
        } else {
            Rect::new(
                g.range(-300.0, 1500.0),
                g.range(-300.0, 900.0),
                g.range(4.0, 120.0),
                g.range(4.0, 40.0),
            )
        };
        let name = if i > 0 && g.chance(0.08) {
            format!("r{}", g.below(i))
        } else {
            format!("r{i}")
        };
        objects.routers.push(RawRouter { rect, name });
    }

    let no_labels = g.chance(0.2);
    let links = 1 + g.below(6);
    for _ in 0..links {
        let ra = objects.routers[g.below(routers)].rect;
        let rb = objects.routers[g.below(routers)].rect;
        let a = if g.chance(0.12) {
            // Far outside every box, and so outside the grid's bounds.
            Point::new(
                g.pick(&[-4000.0, -900.0, 2500.0, 6000.0]),
                g.range(-2000.0, 3000.0),
            )
        } else {
            on_boundary(&mut g, &ra)
        };
        let mut b = on_boundary(&mut g, &rb);
        match g.below(5) {
            0 => b.y = a.y + g.pick(&[0.0, 0.001, 0.3, -0.02]),
            1 => b.x = a.x + g.pick(&[0.0, 0.001, 0.3, -0.02]),
            _ => {}
        }
        let mid = a.midpoint(b);
        objects.links.push(RawLink {
            arrows: vec![arrow(a, mid), arrow(b, mid)],
            loads: vec![load(g.below(101) as u8), load(g.below(101) as u8)],
        });
        if no_labels {
            continue;
        }
        for (end, other) in [(a, b), (b, a)] {
            let (dx, dy) = (other.x - end.x, other.y - end.y);
            let len = (dx * dx + dy * dy).sqrt().max(1e-9);
            let (ux, uy) = (dx / len, dy / len);
            if g.chance(0.8) {
                // A label box along the line: usually a few pixels from
                // the end, sometimes beyond the threshold.
                let s = if g.chance(0.8) {
                    g.range(0.0, 14.0)
                } else {
                    g.range(14.0, 60.0)
                };
                let q = g.range(-5.0, 5.0);
                let (w, h) = (g.range(4.0, 24.0), g.range(2.0, 10.0));
                let c = Point::new(end.x + ux * s - uy * q, end.y + uy * s + ux * q);
                let rect = Rect::new(c.x - w / 2.0, c.y - h / 2.0, w, h);
                let copies = if g.chance(0.2) { 2 } else { 1 };
                for copy in 0..copies {
                    objects.labels.push(RawLabel {
                        rect,
                        text: format!("#{}{}", objects.labels.len(), "'".repeat(copy)),
                    });
                }
            }
            if g.chance(0.25) {
                // A long thin box parallel to the line, just off the end.
                let off = g.range(0.0, 6.0);
                let q = g.pick(&[0.0, 0.2, -0.3, 0.26, 1.0]);
                let long = g.range(100.0, 400.0);
                let thin = g.range(0.0, 1.5);
                let rect = if ux.abs() >= uy.abs() {
                    Rect::new(
                        end.x + ux.signum() * off,
                        end.y + q,
                        ux.signum() * long,
                        thin,
                    )
                } else {
                    Rect::new(
                        end.x + q,
                        end.y + uy.signum() * off,
                        thin,
                        uy.signum() * long,
                    )
                };
                objects.labels.push(RawLabel {
                    rect,
                    text: format!("#{}", objects.labels.len()),
                });
            }
        }
    }
    if !no_labels {
        for _ in 0..g.below(8) {
            let rect = Rect::new(
                g.range(-300.0, 1500.0),
                g.range(-300.0, 900.0),
                g.range(2.0, 30.0),
                g.range(2.0, 12.0),
            );
            objects.labels.push(RawLabel {
                rect,
                text: format!("#{}", objects.labels.len()),
            });
        }
    }

    let config = ExtractConfig {
        label_distance_threshold: g.pick(&[12.0, 12.0, 3.0, 40.0, 0.0]),
        require_all_routers_linked: g.chance(0.3),
        geometry_tolerance: g.pick(&[0.0, 0.0, 0.25, 1.0, 2.5]),
        use_spatial_index: true,
    };
    (objects, config)
}

fn t() -> Timestamp {
    Timestamp::from_ymd(2022, 2, 1)
}

/// Runs both paths and returns the grid path's result and walk count.
fn both(
    objects: &RawObjects,
    config: &ExtractConfig,
) -> (Result<TopologySnapshot, ExtractError>, u64) {
    let brute = ExtractConfig {
        use_spatial_index: false,
        ..config.clone()
    };
    let mut scratch = AttributionScratch::new();
    let expected = algorithm2_with(objects, MapKind::Europe, t(), &brute, &mut scratch);
    let brute_stats = scratch.take_stats();
    let got = algorithm2_with(objects, MapKind::Europe, t(), config, &mut scratch);
    let stats = scratch.take_stats();
    assert_eq!(got, expected, "grid vs brute force, config {config:?}");
    assert_eq!(stats.lines, brute_stats.lines);
    assert_eq!(stats.rects_baseline, brute_stats.rects_baseline);
    // Both ends share one deduplication: no box is tested twice per link.
    assert!(stats.rects_tested <= stats.rects_baseline, "{stats:?}");
    assert_eq!(brute_stats.completions, 0, "brute force walks no grid");
    // Reusing the scratch for a second run changes nothing.
    let again = algorithm2_with(objects, MapKind::Europe, t(), config, &mut scratch);
    assert_eq!(again, got, "scratch reuse");
    (got, stats.completions)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn nearest_first_equals_brute_force(seed in any::<u64>()) {
        let (objects, config) = scene(seed);
        let _ = both(&objects, &config);
    }
}

#[test]
fn generated_scenes_reach_every_outcome() {
    // The property above is only as strong as its scenes: check that
    // they succeed, fail in each attribution error, and exercise both
    // the nearest-first search and the line-walk completion.
    let mut kinds = std::collections::BTreeMap::new();
    let (mut walked, mut settled) = (0usize, 0usize);
    for seed in 0..2000 {
        let (objects, config) = scene(seed);
        let (result, completions) = both(&objects, &config);
        let kind = result.as_ref().map_or_else(ExtractError::kind, |_| "ok");
        *kinds.entry(kind).or_insert(0usize) += 1;
        if completions > 0 {
            walked += 1;
        } else if result.is_ok() {
            settled += 1;
        }
    }
    for kind in [
        "ok",
        "dangling-link",
        "self-loop",
        "label-too-far",
        "unlinked-router",
    ] {
        assert!(
            kinds.contains_key(kind),
            "no scene ends in {kind}: {kinds:?}"
        );
    }
    assert!(
        walked > 0 && settled > 0,
        "walked {walked}, settled {settled}"
    );
}

/// A zig-zag of routers joined neighbour to neighbour, spread wide
/// enough that no ring search around an end can cover the whole grid.
fn label_less_zig_zag() -> RawObjects {
    let mut objects = RawObjects::default();
    let top = |i: i32| f64::from(i % 4) * 90.0;
    for i in 0..40 {
        objects.routers.push(RawRouter {
            rect: Rect::new(f64::from(i) * 200.0, top(i), 80.0, 24.0),
            name: format!("r{i}"),
        });
    }
    for i in 0..39 {
        let a = Point::new(f64::from(i) * 200.0 + 80.0, top(i) + 12.0);
        let b = Point::new(f64::from(i + 1) * 200.0, top(i + 1) + 12.0);
        let mid = a.midpoint(b);
        objects.links.push(RawLink {
            arrows: vec![arrow(a, mid), arrow(b, mid)],
            loads: vec![load(10), load(20)],
        });
    }
    objects
}

#[test]
fn label_less_maps_finish_with_a_line_walk() {
    // No label ever qualifies, so no end can prove "no label" nearby:
    // each finishes with the line walk, and the answer is still exact.
    let objects = label_less_zig_zag();
    let (result, completions) = both(&objects, &ExtractConfig::default());
    let snapshot = result.expect("label-less links attribute cleanly");
    assert!(snapshot
        .links
        .iter()
        .all(|l| l.a.label.is_none() && l.b.label.is_none()));
    assert!(
        completions > 0,
        "label-less ends must fall back to the walk"
    );
}

#[test]
fn exact_ties_go_to_the_lowest_index() {
    // Two identical router boxes and two identical label boxes at end A:
    // brute force keeps the first of equal minima, and so must the
    // nearest-first search.
    let a = Point::new(80.0, 50.0);
    let b = Point::new(300.0, 50.0);
    let mid = a.midpoint(b);
    let router = |x: f64, name: &str| RawRouter {
        rect: Rect::new(x, 38.0, 80.0, 24.0),
        name: name.into(),
    };
    let label = |x: f64, text: &str| RawLabel {
        rect: Rect::new(x, 46.0, 22.0, 8.0),
        text: text.into(),
    };
    let objects = RawObjects {
        routers: vec![
            router(0.0, "first"),
            router(0.0, "twin"),
            router(300.0, "far"),
        ],
        links: vec![RawLink {
            arrows: vec![arrow(a, mid), arrow(b, mid)],
            loads: vec![load(1), load(2)],
        }],
        labels: vec![
            label(85.0, "#first"),
            label(85.0, "#second"),
            label(273.0, "#far"),
        ],
    };
    let config = ExtractConfig {
        require_all_routers_linked: false,
        ..ExtractConfig::default()
    };
    let (result, completions) = both(&objects, &config);
    let snapshot = result.expect("ties attribute cleanly");
    let link = &snapshot.links[0];
    assert_eq!(link.a.node.name, "first");
    assert_eq!(link.a.label.as_deref(), Some("#first"));
    assert_eq!(link.b.label.as_deref(), Some("#far"));
    assert_eq!(completions, 0, "both ends settle nearest-first");
}
