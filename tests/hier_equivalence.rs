//! Equivalence and superiority pins of the hierarchical pipeline:
//!
//! 1. the refactored `DeterministicPlacer` (now the pure-enumeration
//!    configuration of `HierPlacer`) reproduces the pre-refactor results
//!    **bit-identically** on every bundled circuit — the golden values below
//!    were captured from the recursive implementation before the refactor;
//! 2. the pure configuration `HierPlacer::new` (no annealing) and
//!    `DeterministicPlacer` agree exactly, down to the placement;
//! 3. hybrid results are independent of the worker thread count;
//! 4. the hier engine never loses to the deterministic engine on bounding
//!    area (the driver's enumeration fallback makes this structural);
//! 5. the hybrid configuration reproduces pinned results bit-identically:
//!    bounding area, wirelength and fallback outcome of the `hier` lane plus
//!    the root staircase, on every bundled circuit.

use analog_layout_synthesis::circuit::benchmarks;
use analog_layout_synthesis::portfolio::{
    run_engine_once, run_portfolio, PortfolioConfig, PortfolioEngine, RestartSettings,
};
use analog_layout_synthesis::shapefn::hier::{HierOptions, HierPlacer};
use analog_layout_synthesis::shapefn::{DeterministicPlacer, ShapeModel};

/// Golden results of the pre-refactor `DeterministicPlacer`, one row per
/// bundled circuit: enhanced `(w, h)`, enhanced root-shape count, the full
/// enhanced staircase, regular `(w, h)`, regular root-shape count, and the
/// wirelength of the enhanced placement.
#[allow(clippy::type_complexity)]
fn golden() -> Vec<(&'static str, (i64, i64), usize, Vec<(i64, i64)>, (i64, i64), usize, f64)> {
    vec![
        (
            "miller_opamp_fig6",
            (238, 90),
            12,
            vec![
                (90, 270),
                (96, 238),
                (108, 218),
                (116, 214),
                (120, 212),
                (130, 172),
                (150, 164),
                (160, 148),
                (170, 140),
                (186, 130),
                (226, 108),
                (238, 90),
            ],
            (238, 90),
            12,
            726.0,
        ),
        (
            "miller_v2",
            (835, 356),
            18,
            vec![
                (350, 994),
                (395, 971),
                (429, 901),
                (453, 707),
                (492, 638),
                (595, 629),
                (660, 607),
                (663, 534),
                (686, 517),
                (699, 471),
                (777, 447),
                (796, 423),
                (835, 356),
                (1042, 308),
                (1120, 285),
                (1127, 284),
                (1443, 275),
                (1508, 264),
            ],
            (350, 994),
            19,
            3882.0,
        ),
        (
            "comparator_v2",
            (383, 1316),
            14,
            vec![
                (199, 2582),
                (308, 2560),
                (358, 2026),
                (378, 1338),
                (383, 1316),
                (542, 1192),
                (716, 1101),
                (756, 710),
                (880, 680),
                (900, 596),
                (1278, 534),
                (1512, 443),
                (1636, 351),
                (1696, 329),
            ],
            (383, 1316),
            12,
            5869.0,
        ),
        (
            "folded_cascode",
            (581, 684),
            24,
            vec![
                (305, 1381),
                (306, 1369),
                (311, 1336),
                (316, 1278),
                (330, 1207),
                (340, 1176),
                (396, 1162),
                (463, 1038),
                (489, 1020),
                (529, 781),
                (570, 726),
                (581, 684),
                (605, 668),
                (621, 650),
                (651, 637),
                (713, 602),
                (754, 567),
                (966, 525),
                (971, 496),
                (974, 472),
                (1087, 442),
                (1128, 401),
                (1172, 396),
                (1236, 338),
            ],
            (529, 803),
            25,
            6534.0,
        ),
        (
            "buffer",
            (460, 1850),
            25,
            vec![
                (271, 3306),
                (317, 3128),
                (352, 2536),
                (377, 2388),
                (450, 1955),
                (460, 1850),
                (546, 1735),
                (602, 1661),
                (613, 1521),
                (704, 1298),
                (825, 1278),
                (848, 1172),
                (908, 969),
                (1001, 949),
                (1142, 830),
                (1379, 675),
                (1512, 669),
                (1573, 620),
                (1646, 594),
                (1647, 568),
                (1921, 527),
                (2059, 483),
                (2101, 446),
                (2394, 402),
                (2641, 344),
            ],
            (951, 995),
            24,
            27201.0,
        ),
        (
            "biasynth",
            (1851, 796),
            25,
            vec![
                (348, 4552),
                (373, 4355),
                (443, 3995),
                (501, 3586),
                (584, 3413),
                (639, 2571),
                (695, 2279),
                (815, 2140),
                (971, 1811),
                (1033, 1521),
                (1192, 1432),
                (1257, 1315),
                (1349, 1245),
                (1571, 1117),
                (1672, 1024),
                (1814, 887),
                (1851, 796),
                (2348, 691),
                (3065, 584),
                (3370, 509),
                (3609, 481),
                (3916, 461),
                (4333, 403),
                (4901, 360),
                (5379, 309),
            ],
            (5718, 316),
            25,
            32686.0,
        ),
        (
            "lnamixbias",
            (4844, 425),
            24,
            vec![
                (359, 6050),
                (395, 5588),
                (472, 4901),
                (532, 4022),
                (593, 3683),
                (723, 3148),
                (799, 2645),
                (963, 2227),
                (1101, 2025),
                (1260, 1860),
                (1425, 1681),
                (1586, 1513),
                (1756, 1290),
                (1997, 1183),
                (2154, 981),
                (2367, 929),
                (2700, 820),
                (2891, 728),
                (3222, 678),
                (4082, 591),
                (4512, 508),
                (4844, 425),
                (5493, 376),
                (6419, 347),
            ],
            (362, 6497),
            25,
            114691.0,
        ),
    ]
}

#[test]
fn deterministic_placer_reproduces_pre_refactor_results_bit_identically() {
    for (name, e_dims, e_shapes, e_staircase, r_dims, r_shapes, wirelength) in golden() {
        let circuit = benchmarks::by_name(name).expect("bundled name resolves");
        let placer = DeterministicPlacer::new(&circuit);
        let enhanced = placer.run(ShapeModel::Enhanced);
        assert_eq!((enhanced.dims.w, enhanced.dims.h), e_dims, "{name}: enhanced dims");
        assert_eq!(enhanced.root_shapes, e_shapes, "{name}: enhanced root shapes");
        assert_eq!(enhanced.staircase, e_staircase, "{name}: enhanced staircase");
        let metrics =
            enhanced.placement.as_ref().expect("enhanced placement").metrics(&circuit.netlist);
        assert_eq!(metrics.wirelength, wirelength, "{name}: placement wirelength");
        let regular = placer.run(ShapeModel::Regular);
        assert_eq!((regular.dims.w, regular.dims.h), r_dims, "{name}: regular dims");
        assert_eq!(regular.root_shapes, r_shapes, "{name}: regular root shapes");
    }
}

/// Golden results of the hybrid configuration (the `hier` portfolio lane),
/// one row per run: circuit, fast schedule, and then for
/// `run_engine_once(Hier, seed 7)` the bounding area, the wirelength and
/// `enumeration_won`, followed by the root staircase of the `HierPlacer` run
/// with the same options. Every bundled circuit runs the fast schedule;
/// `miller_opamp_fig6` also runs the full one.
#[allow(clippy::type_complexity)]
fn hybrid_golden() -> Vec<(&'static str, bool, i128, f64, bool, Vec<(i64, i64)>)> {
    vec![
        (
            "miller_opamp_fig6",
            true,
            21420,
            726.0,
            false,
            vec![
                (90, 270),
                (96, 238),
                (108, 218),
                (116, 214),
                (120, 212),
                (130, 172),
                (150, 164),
                (156, 142),
                (170, 140),
                (186, 130),
                (190, 118),
                (226, 108),
                (238, 90),
            ],
        ),
        (
            "miller_v2",
            true,
            290130,
            5186.0,
            false,
            vec![
                (350, 994),
                (395, 971),
                (429, 901),
                (453, 707),
                (492, 638),
                (595, 629),
                (660, 607),
                (663, 534),
                (675, 456),
                (686, 423),
                (720, 419),
                (835, 356),
                (891, 333),
                (1018, 285),
                (1070, 284),
                (1315, 275),
                (1380, 264),
            ],
        ),
        (
            "comparator_v2",
            true,
            497951,
            7018.0,
            false,
            vec![
                (199, 2582),
                (308, 2560),
                (358, 2026),
                (378, 1338),
                (383, 1316),
                (542, 1192),
                (577, 863),
                (756, 710),
                (880, 680),
                (900, 596),
                (1278, 534),
                (1512, 443),
                (1636, 351),
                (1696, 329),
            ],
        ),
        (
            "folded_cascode",
            true,
            368745,
            8508.0,
            false,
            vec![
                (305, 1209),
                (330, 1176),
                (396, 1162),
                (401, 1056),
                (463, 997),
                (523, 936),
                (529, 781),
                (568, 772),
                (570, 684),
                (594, 637),
                (611, 628),
                (680, 550),
                (788, 484),
                (938, 419),
                (1067, 401),
                (1111, 386),
                (1172, 357),
                (1213, 348),
                (1236, 338),
            ],
        ),
        (
            "buffer",
            true,
            811206,
            36639.0,
            false,
            vec![
                (271, 3195),
                (300, 2847),
                (306, 2651),
                (317, 2584),
                (340, 2524),
                (359, 2332),
                (433, 2064),
                (528, 1617),
                (597, 1494),
                (681, 1288),
                (802, 1193),
                (812, 1188),
                (908, 1029),
                (966, 949),
                (1089, 895),
                (1131, 774),
                (1378, 653),
                (1677, 594),
                (1678, 563),
                (1826, 507),
                (1838, 466),
                (2131, 416),
                (2153, 403),
                (2256, 396),
                (2641, 344),
            ],
        ),
        (
            "biasynth",
            true,
            1395980,
            34250.0,
            false,
            vec![
                (348, 4245),
                (377, 4104),
                (412, 3883),
                (452, 3675),
                (483, 3505),
                (584, 3149),
                (617, 2867),
                (667, 2167),
                (878, 1958),
                (921, 1768),
                (1014, 1452),
                (1115, 1252),
                (1232, 1224),
                (1389, 1119),
                (1543, 1024),
                (1653, 961),
                (1859, 844),
                (2103, 739),
                (2504, 608),
                (3042, 554),
                (3408, 456),
                (3649, 403),
                (4272, 374),
                (4399, 342),
                (4713, 309),
            ],
        ),
        (
            "lnamixbias",
            true,
            1959675,
            117660.0,
            false,
            vec![
                (359, 5682),
                (399, 5255),
                (472, 4661),
                (515, 4016),
                (556, 3570),
                (699, 3029),
                (845, 2420),
                (976, 2132),
                (1217, 1878),
                (1302, 1756),
                (1526, 1540),
                (1590, 1449),
                (1870, 1183),
                (2063, 1044),
                (2289, 905),
                (2558, 829),
                (2708, 746),
                (3126, 662),
                (3478, 597),
                (4060, 540),
                (4450, 463),
                (4611, 425),
                (4740, 424),
                (5542, 378),
                (6314, 347),
            ],
        ),
        (
            "miller_opamp_fig6",
            false,
            21160,
            1227.5,
            false,
            vec![
                (90, 270),
                (96, 230),
                (108, 218),
                (116, 214),
                (120, 212),
                (130, 172),
                (150, 164),
                (160, 148),
                (166, 128),
                (190, 114),
                (226, 108),
                (230, 92),
                (238, 90),
            ],
        ),
    ]
}

#[test]
fn hybrid_hier_engine_reproduces_pinned_results_bit_identically() {
    for (name, fast, area, wirelength, enumeration_won, staircase) in hybrid_golden() {
        let circuit = benchmarks::by_name(name).expect("bundled name resolves");
        let settings = RestartSettings { fast_schedule: fast, ..RestartSettings::default() };
        let outcome = run_engine_once(&circuit, PortfolioEngine::Hier, 7, &settings);
        assert_eq!(outcome.metrics.bounding_area, area, "{name} fast={fast}: bounding area");
        assert_eq!(outcome.metrics.wirelength, wirelength, "{name} fast={fast}: wirelength");
        assert_eq!(outcome.enumeration_won, Some(enumeration_won), "{name} fast={fast}");
        let hier = HierPlacer::hybrid(&circuit, 7)
            .with_options(HierOptions::default().with_seed(7).with_fast_schedule(fast))
            .run();
        assert_eq!(hier.staircase, staircase, "{name} fast={fast}: staircase");
        assert_eq!(hier.dims.area(), area, "{name} fast={fast}: lane and placer agree");
    }
}

#[test]
fn pure_hier_placer_and_deterministic_placer_agree_exactly() {
    for name in benchmarks::names() {
        let circuit = benchmarks::by_name(name).expect("bundled name resolves");
        let deterministic = DeterministicPlacer::new(&circuit).run(ShapeModel::Enhanced);
        let hier = HierPlacer::new(&circuit).run();
        assert_eq!(deterministic.dims, hier.dims, "{name}");
        assert_eq!(deterministic.staircase, hier.staircase, "{name}");
        assert_eq!(deterministic.root_shapes, hier.root_shapes, "{name}");
        assert_eq!(deterministic.placement.as_ref(), Some(&hier.placement), "{name}");
        assert_eq!(hier.annealed_nodes, 0, "{name}: pure configuration must not anneal");
    }
}

#[test]
fn hybrid_results_are_independent_of_the_thread_count() {
    let circuit = benchmarks::folded_cascode();
    let config = PortfolioConfig::new(77)
        .with_restarts(2)
        .with_engines([PortfolioEngine::Hier])
        .with_fast_schedule(true);
    let one = run_portfolio(&circuit, &config.clone().with_threads(1));
    let eight = run_portfolio(&circuit, &config.with_threads(8));
    assert_eq!(one.best_cost(), eight.best_cost());
    assert_eq!(one.restarts.len(), eight.restarts.len());
    for (a, b) in one.restarts.iter().zip(&eight.restarts) {
        assert_eq!(a.cost, b.cost);
        assert_eq!(a.placement, b.placement);
    }

    // and directly, outside the portfolio: two hybrid runs are bit-identical
    let run = || {
        HierPlacer::hybrid(&circuit, 9)
            .with_options(HierOptions::default().with_seed(9).with_fast_schedule(true))
            .run()
    };
    let a = run();
    let b = run();
    assert_eq!(a.dims, b.dims);
    assert_eq!(a.staircase, b.staircase);
    assert_eq!(a.placement, b.placement);
}

#[test]
fn hier_engine_matches_or_beats_deterministic_area_on_every_bundled_circuit() {
    let settings = RestartSettings { fast_schedule: true, ..RestartSettings::default() };
    for name in benchmarks::names() {
        let circuit = benchmarks::by_name(name).expect("bundled name resolves");
        let deterministic = run_engine_once(&circuit, PortfolioEngine::Deterministic, 7, &settings);
        let hier = run_engine_once(&circuit, PortfolioEngine::Hier, 7, &settings);
        assert!(
            hier.metrics.bounding_area <= deterministic.metrics.bounding_area,
            "{name}: hier {} lost to deterministic {}",
            hier.metrics.bounding_area,
            deterministic.metrics.bounding_area,
        );
        assert_eq!(hier.metrics.overlap_area, 0, "{name}");
        assert!(hier.placement.is_complete(), "{name}");
    }
}
