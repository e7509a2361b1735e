//! Integration tests for the detailed pipeline.
//!
//! Every `simulate` call here runs with the oracle checker enabled: the
//! retired stream is verified, value for value, against the functional
//! emulator, so "the run completed" is already a strong correctness
//! statement. The assertions on top check timing-model properties.

use ci_core::{
    simulate, CacheModel, CompletionModel, PipelineConfig, Preemption, ReconStrategy,
    RedispatchMode, RepredictMode, Stats,
};
use ci_isa::{Asm, Program, Reg};
use ci_workloads::{random_program, Workload, WorkloadParams};

fn run(p: &Program, cfg: PipelineConfig) -> Stats {
    simulate(p, cfg, 50_000).expect("valid program")
}

/// A counted loop with an unpredictable diamond inside and work after the
/// join — the canonical control-independence shape from the paper's
/// Figure 1.
fn diamond_loop(iters: i64) -> Program {
    let mut a = Asm::new();
    a.words(ci_isa::Addr(0x100), &[7, 3, 9, 1, 4, 12, 5, 8]);
    a.li(Reg::R1, iters);
    a.li(Reg::R9, 0x100);
    a.label("top").unwrap();
    a.andi(Reg::R2, Reg::R1, 7);
    a.add(Reg::R3, Reg::R9, Reg::R2);
    a.load(Reg::R4, Reg::R3, 0);
    a.andi(Reg::R5, Reg::R4, 1);
    a.beq(Reg::R5, Reg::R0, "else");
    a.addi(Reg::R6, Reg::R4, 10);
    a.jump("join");
    a.label("else").unwrap();
    a.slli(Reg::R6, Reg::R4, 2);
    a.label("join").unwrap();
    a.add(Reg::R7, Reg::R7, Reg::R6); // control independent of the diamond
    a.addi(Reg::R1, Reg::R1, -1);
    a.bne(Reg::R1, Reg::R0, "top");
    a.store(Reg::R7, Reg::R0, 0x200);
    a.halt();
    a.assemble().unwrap()
}

#[test]
fn base_and_ci_retire_identical_architectural_work() {
    let p = diamond_loop(300);
    let b = run(&p, PipelineConfig::base(128));
    let c = run(&p, PipelineConfig::ci(128));
    assert_eq!(b.retired, c.retired);
    assert!(b.retired > 2_000);
}

#[test]
fn ci_beats_base_on_unpredictable_diamonds() {
    let p = diamond_loop(500);
    let b = run(&p, PipelineConfig::base(128));
    let c = run(&p, PipelineConfig::ci(128));
    assert!(
        c.ipc() > b.ipc(),
        "ci {:.3} should beat base {:.3}",
        c.ipc(),
        b.ipc()
    );
    assert!(c.reconverged > 0, "diamond recoveries must reconverge");
}

#[test]
fn ci_preserves_control_independent_work() {
    let p = diamond_loop(500);
    let c = run(&p, PipelineConfig::ci(128));
    let (fetch_saved, work_saved, _, _) = c.work_saved_fractions();
    assert!(fetch_saved > 0.0, "survivors must exist");
    assert!(work_saved > 0.0, "some survivors had final values");
    assert!(c.avg_ci() > 1.0);
}

#[test]
fn base_never_reconverges() {
    let p = diamond_loop(200);
    let b = run(&p, PipelineConfig::base(128));
    assert_eq!(b.reconverged, 0);
    assert_eq!(b.inserted, 0);
    assert_eq!(b.fetch_saved, 0);
}

#[test]
fn straight_line_code_is_identical_across_modes() {
    let mut a = Asm::new();
    for i in 0..200 {
        a.addi(Reg::R1, Reg::R1, i % 7);
        a.xor(Reg::R2, Reg::R2, Reg::R1);
    }
    a.halt();
    let p = a.assemble().unwrap();
    let b = run(&p, PipelineConfig::base(128));
    let c = run(&p, PipelineConfig::ci(128));
    assert_eq!(b.cycles, c.cycles, "no branches → identical schedules");
    assert_eq!(b.recoveries, 0);
    assert_eq!(c.recoveries, 0);
}

#[test]
fn serial_chain_runs_near_one_ipc() {
    let mut a = Asm::new();
    for _ in 0..300 {
        a.addi(Reg::R1, Reg::R1, 1);
    }
    a.halt();
    let p = a.assemble().unwrap();
    let s = run(&p, PipelineConfig::base(256));
    let ipc = s.ipc();
    assert!((0.8..=1.1).contains(&ipc), "serial ipc {ipc}");
}

#[test]
fn wide_independent_code_approaches_machine_width() {
    let mut a = Asm::new();
    for rep in 0..100 {
        for r in 1..=16u8 {
            a.addi(Reg::try_from(r).unwrap(), Reg::try_from(r).unwrap(), rep);
        }
    }
    a.halt();
    let p = a.assemble().unwrap();
    let s = run(
        &p,
        PipelineConfig {
            cache: CacheModel::Ideal { latency: 1 },
            ..PipelineConfig::base(512)
        },
    );
    assert!(s.ipc() > 8.0, "ipc {}", s.ipc());
}

#[test]
fn store_load_forwarding_and_violations_repair() {
    // A loop that stores then immediately loads the same slot, with the slot
    // index occasionally aliasing: exercises forwarding and violations.
    let mut a = Asm::new();
    a.li(Reg::R1, 400);
    a.label("top").unwrap();
    a.andi(Reg::R2, Reg::R1, 3);
    a.store(Reg::R1, Reg::R2, 0x40);
    a.load(Reg::R3, Reg::R2, 0x40);
    a.add(Reg::R4, Reg::R4, Reg::R3);
    a.addi(Reg::R1, Reg::R1, -1);
    a.bne(Reg::R1, Reg::R0, "top");
    a.halt();
    let p = a.assemble().unwrap();
    let s = run(&p, PipelineConfig::ci(128));
    assert!(s.issues >= s.retired);
}

#[test]
fn window_size_helps_parallel_workloads() {
    let p = Workload::JpegLike.build(&WorkloadParams {
        scale: 200,
        seed: 3,
    });
    let small = run(&p, PipelineConfig::base(32));
    let large = run(&p, PipelineConfig::base(512));
    assert!(
        large.ipc() > small.ipc() * 1.2,
        "window scaling: {} vs {}",
        large.ipc(),
        small.ipc()
    );
}

#[test]
fn completion_models_all_verify_and_order_sanely() {
    let p = Workload::GoLike.build(&WorkloadParams {
        scale: 400,
        seed: 2,
    });
    let mut ipcs = Vec::new();
    for m in [
        CompletionModel::NonSpec,
        CompletionModel::SpecD,
        CompletionModel::SpecC,
        CompletionModel::Spec,
    ] {
        let s = run(
            &p,
            PipelineConfig {
                completion: m,
                ..PipelineConfig::ci(256)
            },
        );
        ipcs.push((m, s.ipc()));
    }
    let get = |m: CompletionModel| ipcs.iter().find(|(x, _)| *x == m).unwrap().1;
    // spec (unrestricted) must beat the fully conservative non-spec.
    assert!(
        get(CompletionModel::Spec) >= get(CompletionModel::NonSpec),
        "{ipcs:?}"
    );
}

#[test]
fn hfm_never_hurts() {
    let p = Workload::CompressLike.build(&WorkloadParams {
        scale: 500,
        seed: 2,
    });
    let plain = run(
        &p,
        PipelineConfig {
            completion: CompletionModel::Spec,
            ..PipelineConfig::ci(256)
        },
    );
    let hfm = run(
        &p,
        PipelineConfig {
            completion: CompletionModel::Spec,
            hide_false_mispredictions: true,
            ..PipelineConfig::ci(256)
        },
    );
    assert!(
        hfm.ipc() >= plain.ipc() * 0.98,
        "hfm {} vs {}",
        hfm.ipc(),
        plain.ipc()
    );
    assert!(hfm.false_mispredictions <= plain.false_mispredictions);
}

#[test]
fn repredict_modes_verify() {
    let p = Workload::GccLike.build(&WorkloadParams {
        scale: 300,
        seed: 2,
    });
    for rp in [
        RepredictMode::None,
        RepredictMode::Heuristic,
        RepredictMode::Oracle,
    ] {
        let s = run(
            &p,
            PipelineConfig {
                repredict: rp,
                ..PipelineConfig::ci(256)
            },
        );
        assert!(s.retired > 0, "{rp:?}");
    }
}

#[test]
fn segment_sizes_cost_capacity() {
    let p = Workload::GccLike.build(&WorkloadParams {
        scale: 300,
        seed: 5,
    });
    let s1 = run(
        &p,
        PipelineConfig {
            segment: 1,
            ..PipelineConfig::ci(256)
        },
    );
    let s16 = run(
        &p,
        PipelineConfig {
            segment: 16,
            ..PipelineConfig::ci(256)
        },
    );
    // Fragmentation can only hurt (or tie).
    assert!(
        s16.ipc() <= s1.ipc() * 1.02,
        "seg16 {} vs seg1 {}",
        s16.ipc(),
        s1.ipc()
    );
}

#[test]
fn heuristic_reconvergence_verifies_and_underperforms_postdom() {
    let p = Workload::GoLike.build(&WorkloadParams {
        scale: 400,
        seed: 6,
    });
    let sw = run(&p, PipelineConfig::ci(256));
    let hw = run(
        &p,
        PipelineConfig {
            recon: ReconStrategy::hardware(true, true, true),
            ..PipelineConfig::ci(256)
        },
    );
    let base = run(&p, PipelineConfig::base(256));
    assert!(
        hw.ipc() >= base.ipc() * 0.95,
        "heuristics shouldn't collapse below base"
    );
    assert!(
        sw.ipc() >= hw.ipc() * 0.9,
        "postdom {} vs heuristics {}",
        sw.ipc(),
        hw.ipc()
    );
}

#[test]
fn preemption_modes_agree_closely() {
    let p = Workload::GoLike.build(&WorkloadParams {
        scale: 400,
        seed: 8,
    });
    let simple = run(
        &p,
        PipelineConfig {
            preemption: Preemption::Simple,
            ..PipelineConfig::ci(256)
        },
    );
    let optimal = run(
        &p,
        PipelineConfig {
            preemption: Preemption::Optimal,
            ..PipelineConfig::ci(256)
        },
    );
    // The paper finds simple ≈ optimal at window 256.
    let ratio = simple.ipc() / optimal.ipc();
    assert!(
        (0.9..=1.1).contains(&ratio),
        "simple {} optimal {}",
        simple.ipc(),
        optimal.ipc()
    );
}

#[test]
fn instant_redispatch_at_least_matches_pipelined_on_average() {
    let mut wins = 0;
    let mut total = 0;
    for seed in 0..6 {
        let p = random_program(seed + 100, 80);
        let ci = run(&p, PipelineConfig::ci(128));
        let cii = run(
            &p,
            PipelineConfig {
                redispatch: RedispatchMode::Instant,
                ..PipelineConfig::ci(128)
            },
        );
        total += 1;
        if cii.cycles <= ci.cycles {
            wins += 1;
        }
    }
    assert!(
        wins * 2 >= total,
        "CI-I should usually be at least as fast: {wins}/{total}"
    );
}

#[test]
fn realistic_cache_slower_than_ideal() {
    let p = Workload::CompressLike.build(&WorkloadParams {
        scale: 500,
        seed: 4,
    });
    let ideal = run(
        &p,
        PipelineConfig {
            cache: CacheModel::Ideal { latency: 1 },
            ..PipelineConfig::ci(256)
        },
    );
    let real = run(&p, PipelineConfig::ci(256));
    assert!(real.ipc() <= ideal.ipc());
    assert!(real.cache_hits + real.cache_misses > 0);
}

#[test]
fn oracle_ghr_runs_and_verifies() {
    let p = Workload::GoLike.build(&WorkloadParams {
        scale: 300,
        seed: 9,
    });
    let s = run(
        &p,
        PipelineConfig {
            oracle_ghr: true,
            ..PipelineConfig::ci(256)
        },
    );
    assert!(s.retired > 0);
}

#[test]
fn tfr_statistics_collected_on_misprediction_heavy_runs() {
    let p = Workload::CompressLike.build(&WorkloadParams {
        scale: 800,
        seed: 4,
    });
    let s = run(
        &p,
        PipelineConfig {
            completion: CompletionModel::Spec,
            ..PipelineConfig::ci(256)
        },
    );
    assert!(s.true_mispredictions + s.false_mispredictions > 0);
    let (t, f) = s.tfr_static.totals();
    assert_eq!(t, s.true_mispredictions);
    assert_eq!(f, s.false_mispredictions);
}

#[test]
fn workloads_all_verify_under_every_major_mode() {
    for w in Workload::ALL {
        let p = w.build(&WorkloadParams {
            scale: w.scale_for(15_000),
            seed: 0x5EED,
        });
        for cfg in [
            PipelineConfig::base(128),
            PipelineConfig::ci(128),
            PipelineConfig::ci_instant(128),
        ] {
            let s = simulate(&p, cfg, 15_000).unwrap();
            assert!(s.retired > 0, "{w}");
        }
    }
}

#[test]
fn pipelines_on_one_shared_reference_match_private_ones() {
    use ci_core::Pipeline;
    use ci_emu::ArchReference;
    use ci_obs::{NoopProbe, NoopProfiler};
    use std::sync::Arc;

    let program = Workload::GoLike.build(&WorkloadParams {
        scale: 100,
        seed: 7,
    });
    let built = ArchReference::build(&program, 20_000).unwrap();
    let reference = Arc::new(built.clone());
    for config in [
        PipelineConfig::base(128),
        PipelineConfig::ci(128),
        PipelineConfig::ci_instant(128),
    ] {
        let mut p = Pipeline::with_reference(
            &program,
            config,
            Arc::clone(&reference),
            NoopProbe,
            NoopProfiler,
        );
        assert!(Arc::ptr_eq(p.reference(), &reference));
        assert_eq!(p.run(), simulate(&program, config, 20_000).unwrap());
    }
    // The failure-path hook corrupts a private copy, never the shared one.
    let mut p = Pipeline::with_reference(
        &program,
        PipelineConfig::ci(128),
        Arc::clone(&reference),
        NoopProbe,
        NoopProfiler,
    );
    p.corrupt_oracle_entry(3);
    assert!(!Arc::ptr_eq(p.reference(), &reference));
    assert_ne!(p.reference()[3], reference[3]);
    assert_eq!(*reference, built);
}
