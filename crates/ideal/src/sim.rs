//! The shared cycle-driven engine behind all six idealized models.
//!
//! # Model mechanics
//!
//! Every dynamic instruction gets a 64-bit *logical key*: correct-path
//! instruction `i` has key `i << 11`; the `j`-th wrong-path instruction of the
//! misprediction at `i` has key `(i << 11) | (j + 1)`, placing the incorrect
//! control-dependent path between its branch and the branch's logical
//! successor. The window is kept sorted by key; fetch always takes the lowest
//! *available* unfetched key, where availability encodes the model:
//!
//! - `base`: nothing past an unresolved misprediction is available.
//! - `nWR-*`: the correct control-dependent region is deferred to resolution,
//!   control-independent keys (at/after the reconvergent instruction) are
//!   available immediately.
//! - `WR-*`: wrong-path keys are available until resolution; control
//!   independent keys become available once the wrong path has been fully
//!   fetched (the fetch unit reaches the reconvergent point *via* the wrong
//!   path, as in hardware).
//!
//! `FD` models additionally hold back a control-independent instruction whose
//! source register (or load address) was written by an in-flight wrong path
//! and whose true producer is older than the mispredicted branch; the repair
//! completes one cycle after resolution, the best a real redispatch could do.
//!
//! If a restart needs window space (more correct control-dependent
//! instructions than incorrect ones), the youngest instructions are evicted
//! and refetched later, as Section 3.2.2 of the paper requires. Eviction does
//! not cascade to already-issued consumers: the evicted instruction's value
//! was genuinely computed and broadcast before the squash, and recomputation
//! yields the same value on the correct path.
//!
//! Approximations (documented deviations from a hypothetical perfect model):
//! wrong-path *loads* do not chain through wrong-path stores (address
//! generation plus cache latency only), branches *inside* a wrong path do not
//! spawn nested wrong paths, and the `base` model does not charge issue
//! bandwidth for wrong-path work (a slight advantage to `base`, i.e. a
//! conservative estimate of control-independence benefit).

use crate::input::{StudyInput, WpDep, NO_EVENT};
use crate::model::{IdealConfig, IdealResult, ModelKind};
use ci_isa::InstClass;
use ci_obs::{Event, NoopProbe, Probe};
use std::collections::{BTreeSet, VecDeque};

const KEY_SHIFT: u64 = 11;

fn ckey(i: u32) -> u64 {
    u64::from(i) << KEY_SHIFT
}

fn wkey(branch: u32, j: u32) -> u64 {
    (u64::from(branch) << KEY_SHIFT) | u64::from(j + 1)
}

/// Every [`InstClass`], for building the per-run latency table.
const CLASSES: [InstClass; 11] = [
    InstClass::IntAlu,
    InstClass::IntMul,
    InstClass::IntDiv,
    InstClass::Load,
    InstClass::Store,
    InstClass::CondBranch,
    InstClass::Jump,
    InstClass::Call,
    InstClass::Return,
    InstClass::IndirectJump,
    InstClass::Halt,
];

/// Execution latency per class (indexed by `class as usize`), cache access
/// included for loads.
fn latency_table(cfg: &IdealConfig) -> [u64; CLASSES.len()] {
    let mut table = [0; CLASSES.len()];
    for class in CLASSES {
        let base = cfg.latencies.execute(class);
        table[class as usize] = if class == InstClass::Load {
            base + cfg.cache_latency
        } else {
            base
        };
    }
    table
}

#[derive(Clone, Copy, Debug)]
enum Item {
    Correct(u32),
    Wrong { ev: u32, j: u32 },
}

#[derive(Clone, Copy, Debug)]
struct Slot {
    item: Item,
    /// First cycle the item may issue (two cycles after fetch);
    /// `u64::MAX` once it has issued.
    issue_at: u64,
}

#[derive(Clone, Debug, Default)]
struct EvState {
    wp_fetched: u32,
    resolve_at: Option<u64>,
}

struct Sim<'a, P: Probe> {
    probe: P,
    input: &'a StudyInput,
    cfg: &'a IdealConfig,
    /// The window in key order: `slots[p]` holds the item with key
    /// `keys[p]`, and `keys` is strictly increasing.
    keys: VecDeque<u64>,
    slots: VecDeque<Slot>,
    /// Execution latency per instruction class for this configuration.
    latency: [u64; CLASSES.len()],
    /// Completion cycle per correct instruction (`u64::MAX` = not executed).
    comp: Vec<u64>,
    /// Completion cycle per wrong-path instruction, flat: event `e`'s
    /// `j`-th wrong-path instruction is at `input.wrong_base[e] + j`.
    wcomp: Vec<u64>,
    ev: Vec<EvState>,
    /// Events whose mispredicted branch has been fetched and not yet
    /// resolved (small).
    active: Vec<u32>,
    /// Unfetched correct indices below the frontier (deferred CD + evicted).
    pending: BTreeSet<u32>,
    /// Next never-scheduled correct index.
    frontier: u32,
    next_retire: u32,
    now: u64,
    retired: u64,
    wrong_fetched: u64,
    evictions: u64,
    /// Window positions selected by the current cycle's issue pass (a
    /// buffer reused across cycles).
    scratch_issue: Vec<usize>,
}

/// Run one idealized model over `input`.
///
/// See the crate-level docs for the model semantics and the
/// [`ModelKind`] table.
///
/// # Panics
/// Panics if the simulation fails to make forward progress (an internal bug,
/// guarded by a generous cycle cap).
#[must_use]
pub fn simulate(input: &StudyInput, config: &IdealConfig) -> IdealResult {
    simulate_probed(input, config, NoopProbe).0
}

/// Like [`simulate`], but with an observability probe attached: the engine
/// reports fetch, issue, retire, squash, and end-of-cycle occupancy events
/// (this engine has no rename/redispatch machinery, so the restart-sequence
/// events of the detailed pipeline never fire). Wrong-path instructions
/// carry their mispredicted branch's PC — the idealized input does not
/// record per-wrong-instruction PCs.
///
/// # Panics
/// Panics if the simulation fails to make forward progress (an internal
/// bug, guarded by a generous cycle cap).
pub fn simulate_probed<P: Probe>(
    input: &StudyInput,
    config: &IdealConfig,
    probe: P,
) -> (IdealResult, P) {
    let (result, probe, _prof) = simulate_profiled(input, config, probe, ci_obs::NoopProfiler);
    (result, probe)
}

/// Like [`simulate_probed`], but with the engine's host wall time recorded
/// under an `"ideal_run"` span on `prof`. One coarse span attributes a
/// run's time between models; it has no per-stage spans. For scale: at
/// 60,000 instructions on a 2-vCPU Xeon host, a run of this engine took
/// about 9 ms against about 60 ms for a detailed-pipeline cell (150 ideal
/// and 140 detailed cells replayed serially), roughly a seventh.
///
/// # Panics
/// Panics if the simulation fails to make forward progress (an internal
/// bug, guarded by a generous cycle cap).
pub fn simulate_profiled<P: Probe, F: ci_obs::Profiler>(
    input: &StudyInput,
    config: &IdealConfig,
    probe: P,
    mut prof: F,
) -> (IdealResult, P, F) {
    let n = input.len() as u32;
    if n == 0 {
        return (IdealResult::default(), probe, prof);
    }
    let wrong_total = input.wrong_base[input.events.len()];
    let mut sim = Sim {
        probe,
        input,
        cfg: config,
        keys: VecDeque::with_capacity(config.window),
        slots: VecDeque::with_capacity(config.window),
        latency: latency_table(config),
        comp: vec![u64::MAX; n as usize],
        wcomp: vec![u64::MAX; wrong_total as usize],
        ev: vec![EvState::default(); input.events.len()],
        active: Vec::new(),
        pending: BTreeSet::new(),
        frontier: 0,
        next_retire: 0,
        now: 0,
        retired: 0,
        wrong_fetched: 0,
        evictions: 0,
        scratch_issue: Vec::with_capacity(config.width),
    };
    prof.enter("ideal_run");
    sim.run();
    prof.exit();
    let result = IdealResult {
        cycles: sim.now,
        retired: sim.retired,
        mispredictions: if config.model == ModelKind::Oracle {
            0
        } else {
            input.mispredictions()
        },
        wrong_path_fetched: sim.wrong_fetched,
        evictions: sim.evictions,
    };
    (result, sim.probe, prof)
}

impl<P: Probe> Sim<'_, P> {
    fn run(&mut self) {
        let n = self.input.len() as u64;
        let cap = 200 * n + 1_000_000;
        while self.retired < n {
            self.now += 1;
            assert!(self.now < cap, "ideal model failed to make progress");
            self.resolve_events();
            self.retire();
            self.issue();
            self.fetch();
            self.probe.record(
                self.now,
                Event::CycleEnd {
                    occupancy: self.keys.len() as u32,
                },
            );
        }
    }

    /// The PC of correct-path instruction `i`; wrong-path items report
    /// their mispredicted branch's PC.
    fn pc(&self, i: u32) -> u32 {
        self.input.reference[i as usize].pc.0
    }

    fn item_pc(&self, item: Item) -> u32 {
        match item {
            Item::Correct(i) => self.pc(i),
            Item::Wrong { ev, .. } => self.pc(self.input.events[ev as usize].branch_idx),
        }
    }

    /// Window position of the first key not below `k`.
    fn position(&self, k: u64) -> usize {
        self.keys.partition_point(|&x| x < k)
    }

    /// Process events whose mispredicted branch completed on a previous
    /// cycle: squash the wrong path and release the event's constraints.
    fn resolve_events(&mut self) {
        let mut i = 0;
        while i < self.active.len() {
            let e = self.active[i] as usize;
            match self.ev[e].resolve_at {
                Some(c) if c < self.now => {
                    self.active.swap_remove(i);
                    // Squash the event's wrong path: the keys strictly
                    // between the branch and its correct successor.
                    let b = self.input.events[e].branch_idx;
                    let lo = self.position(wkey(b, 0));
                    let hi = self.position(ckey(b + 1));
                    self.keys.drain(lo..hi);
                    self.slots.drain(lo..hi);
                    let pc = self.pc(b);
                    for _ in lo..hi {
                        self.probe.record(self.now, Event::Squash { pc });
                    }
                }
                _ => i += 1,
            }
        }
    }

    fn retire(&mut self) {
        for _ in 0..self.cfg.width {
            let Some(slot) = self.slots.front() else {
                break;
            };
            let Item::Correct(i) = slot.item else { break };
            if i != self.next_retire || self.comp[i as usize] >= self.now {
                break;
            }
            self.keys.pop_front();
            self.slots.pop_front();
            self.probe.record(
                self.now,
                Event::Retire {
                    pc: self.pc(i),
                    issues: 1,
                },
            );
            self.next_retire += 1;
            self.retired += 1;
        }
    }

    fn issue(&mut self) {
        // Select against the start-of-cycle state, then issue the selection
        // in window order.
        let mut to_issue = std::mem::take(&mut self.scratch_issue);
        for (p, slot) in self.slots.iter().enumerate() {
            if to_issue.len() >= self.cfg.width {
                break;
            }
            if self.now >= slot.issue_at && self.ready(slot.item) {
                to_issue.push(p);
            }
        }
        for &p in &to_issue {
            let slot = &mut self.slots[p];
            slot.issue_at = u64::MAX;
            let item = slot.item;
            let pc = self.item_pc(item);
            self.probe
                .record(self.now, Event::Issue { pc, reissue: false });
            // Completion = last execution cycle; a dependent instruction can
            // issue (with full bypassing) the following cycle, so 1-cycle ops
            // chain back-to-back.
            match item {
                Item::Correct(i) => {
                    let class = self.input.classes[i as usize];
                    let comp = self.now + self.latency[class as usize] - 1;
                    self.comp[i as usize] = comp;
                    // A mispredicted branch resolves at completion.
                    if self.cfg.model != ModelKind::Oracle {
                        let e = self.input.event_at[i as usize];
                        if e != NO_EVENT {
                            self.ev[e as usize].resolve_at = Some(comp);
                        }
                    }
                }
                Item::Wrong { ev, j } => {
                    let class = self.input.events[ev as usize].wrong_path[j as usize].class;
                    let comp = self.now + self.latency[class as usize] - 1;
                    let w = self.wrong_index(ev, j);
                    self.wcomp[w] = comp;
                }
            }
        }
        to_issue.clear();
        self.scratch_issue = to_issue;
    }

    fn wrong_index(&self, ev: u32, j: u32) -> usize {
        (self.input.wrong_base[ev as usize] + j) as usize
    }

    fn ready(&self, item: Item) -> bool {
        match item {
            Item::Correct(i) => {
                let deps = &self.input.deps[i as usize];
                for src in deps.srcs.iter().flatten() {
                    if let (_, Some(p)) = src {
                        if self.comp[*p as usize] >= self.now {
                            return false;
                        }
                    }
                }
                if let Some(p) = deps.mem {
                    if self.comp[p as usize] >= self.now {
                        return false;
                    }
                }
                if self.cfg.model.false_deps() && !self.false_dep_clear(i) {
                    return false;
                }
                true
            }
            Item::Wrong { ev, j } => {
                let w = &self.input.events[ev as usize].wrong_path[j as usize];
                for dep in w.deps.iter().flatten() {
                    let c = match *dep {
                        WpDep::Correct(p) => self.comp[p as usize],
                        WpDep::Wrong(jj) => self.wcomp[self.wrong_index(ev, jj)],
                    };
                    if c >= self.now {
                        return false;
                    }
                }
                true
            }
        }
    }

    /// FD models: is `i` free of false data dependences from in-flight wrong
    /// paths? (Repair completes one cycle after resolution; resolved events
    /// have already left `active` by then.)
    fn false_dep_clear(&self, i: u32) -> bool {
        let deps = &self.input.deps[i as usize];
        for &e in &self.active {
            let ev = &self.input.events[e as usize];
            let b = ev.branch_idx;
            let Some(r) = ev.recon_idx else { continue };
            if i < r || b >= i {
                continue; // not control independent w.r.t. this event
            }
            for src in deps.srcs.iter().flatten() {
                let (reg, prod) = *src;
                if ev.wrong_writes(reg) && prod.is_none_or(|p| p <= b) {
                    return false;
                }
            }
            if self.input.classes[i as usize] == InstClass::Load {
                let a = self.input.reference[i as usize]
                    .addr
                    .expect("load has addr");
                if ev.wrong_stores_to(a) && deps.mem.is_none_or(|p| p <= b) {
                    return false;
                }
            }
        }
        true
    }

    /// Lowest fetchable item, if any.
    ///
    /// A correct index `i` is fetchable unless some active event with
    /// branch `b < i` holds it back: a *blocking* event (no CI in this
    /// model, no reconvergent point, or a WR wrong path not yet fully
    /// fetched) holds back everything past `b`; any other event defers only
    /// its correct control-dependent region `[b + 1, recon)`.
    fn next_fetch_item(&self) -> Option<(u64, Item)> {
        let model = self.cfg.model;
        let mut cutoff = u32::MAX;
        let mut wrong: Option<(u64, Item)> = None;
        for &e in &self.active {
            let ev = &self.input.events[e as usize];
            let f = self.ev[e as usize].wp_fetched;
            let walking = model.wastes_resources() && (f as usize) < ev.wrong_path.len();
            if walking {
                let k = wkey(ev.branch_idx, f);
                if wrong.is_none_or(|(wk, _)| k < wk) {
                    wrong = Some((k, Item::Wrong { ev: e, j: f }));
                }
            }
            if walking || !model.exploits_ci() || ev.recon_idx.is_none() {
                cutoff = cutoff.min(ev.branch_idx + 1);
            }
        }
        let correct = self
            .next_correct(cutoff)
            .map(|i| (ckey(i), Item::Correct(i)));
        [correct, wrong]
            .into_iter()
            .flatten()
            .min_by_key(|&(k, _)| k)
    }

    /// Lowest fetchable correct index below `cutoff`: the first pending
    /// index (else the frontier) outside every deferred region.
    fn next_correct(&self, cutoff: u32) -> Option<u32> {
        let mut from = 0;
        loop {
            let i = match self.pending.range(from..).next() {
                Some(&i) => i,
                None if self.frontier >= from && self.frontier < self.input.len() as u32 => {
                    self.frontier
                }
                None => return None,
            };
            if i >= cutoff {
                return None;
            }
            // Below the cutoff only deferred regions can hold `i` back; skip
            // past the furthest one containing it.
            let mut skip_to = None;
            for &e in &self.active {
                let ev = &self.input.events[e as usize];
                if let Some(r) = ev.recon_idx {
                    if ev.branch_idx < i && i < r {
                        skip_to = skip_to.max(Some(r));
                    }
                }
            }
            match skip_to {
                None => return Some(i),
                Some(r) => from = r,
            }
        }
    }

    fn fetch(&mut self) {
        for _ in 0..self.cfg.width {
            let Some((k, item)) = self.next_fetch_item() else {
                break;
            };
            // Window capacity: evict the youngest entry if it is younger than
            // the incoming instruction (a restart overflowing the window);
            // otherwise stall.
            if self.keys.len() >= self.cfg.window {
                let &maxk = self.keys.back().expect("window non-empty");
                if maxk <= k {
                    break;
                }
                self.keys.pop_back();
                let victim = self.slots.pop_back().expect("slot per key");
                let vpc = self.item_pc(victim.item);
                self.probe.record(self.now, Event::Squash { pc: vpc });
                match victim.item {
                    Item::Correct(vi) => {
                        self.comp[vi as usize] = u64::MAX;
                        self.pending.insert(vi);
                        self.evictions += 1;
                    }
                    Item::Wrong { .. } => {
                        // Squashed outright; wrong-path work is never refetched.
                    }
                }
            }

            self.probe.record(
                self.now,
                Event::Fetch {
                    pc: self.item_pc(item),
                },
            );
            let slot = Slot {
                item,
                issue_at: self.now + 2,
            };
            // Frontier fetch arrives in key order; deferred, evicted and
            // wrong-path fetch slot in below younger entries.
            if self.keys.back().is_none_or(|&last| last < k) {
                self.keys.push_back(k);
                self.slots.push_back(slot);
            } else {
                let p = self.position(k);
                self.keys.insert(p, k);
                self.slots.insert(p, slot);
            }

            match item {
                Item::Correct(i) => {
                    if i == self.frontier {
                        self.frontier += 1;
                    } else {
                        self.pending.remove(&i);
                    }
                    // Activate the misprediction event, defer its correct CD
                    // region, and jump the frontier to the reconvergent point.
                    let e = self.input.event_at[i as usize];
                    if self.cfg.model != ModelKind::Oracle && e != NO_EVENT {
                        self.active.push(e);
                        if self.cfg.model.exploits_ci() {
                            if let Some(r) = self.input.events[e as usize].recon_idx {
                                self.pending.extend(self.frontier.max(i + 1)..r);
                                self.frontier = self.frontier.max(r);
                            }
                        }
                    }
                }
                Item::Wrong { ev, .. } => {
                    self.ev[ev as usize].wp_fetched += 1;
                    self.wrong_fetched += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StudyInput;
    use ci_isa::{Asm, Program, Reg};
    use ci_workloads::{random_program, Workload, WorkloadParams};

    fn run(input: &StudyInput, model: ModelKind, window: usize) -> IdealResult {
        simulate(
            input,
            &IdealConfig {
                model,
                window,
                ..IdealConfig::default()
            },
        )
    }

    fn straight_line() -> Program {
        let mut a = Asm::new();
        for _ in 0..64 {
            a.addi(Reg::R1, Reg::R1, 1);
        }
        a.halt();
        a.assemble().unwrap()
    }

    #[test]
    fn serial_chain_is_one_per_cycle() {
        // 64 dependent addis: issue is fully serial; IPC ≈ 1 regardless of
        // model (no branches at all).
        let p = straight_line();
        let input = StudyInput::build(&p, 1000).unwrap();
        for model in ModelKind::ALL {
            let r = run(&input, model, 256);
            assert_eq!(r.retired, 65);
            assert!(
                (60..=80).contains(&r.cycles),
                "{model}: {} cycles",
                r.cycles
            );
        }
    }

    #[test]
    fn independent_ops_reach_width() {
        // 16 independent chains: should approach the machine width.
        let mut a = Asm::new();
        for rep in 0..64 {
            for i in 1..=16u8 {
                let r = Reg::try_from(i).unwrap();
                a.addi(r, r, i64::from(rep));
            }
        }
        a.halt();
        let p = a.assemble().unwrap();
        let input = StudyInput::build(&p, 10_000).unwrap();
        let r = run(&input, ModelKind::Oracle, 512);
        assert!(r.ipc() > 8.0, "ipc {}", r.ipc());
    }

    #[test]
    fn all_instructions_retire_on_every_model_and_window() {
        for seed in [1, 2, 3] {
            let p = random_program(seed, 60);
            let input = StudyInput::build(&p, 50_000).unwrap();
            for model in ModelKind::ALL {
                for window in [16, 64, 256] {
                    let r = run(&input, model, window);
                    assert_eq!(
                        r.retired,
                        input.len() as u64,
                        "seed {seed} {model} w{window}"
                    );
                }
            }
        }
    }

    #[test]
    fn model_dominance_relations() {
        // oracle >= nWR-nFD >= nWR-FD >= base (roughly; allow tiny slack for
        // the legitimate case where out-of-order fetch beats oracle, which
        // the paper notes can happen).
        let p = Workload::GoLike.build(&WorkloadParams {
            scale: 300,
            seed: 9,
        });
        let input = StudyInput::build(&p, 50_000).unwrap();
        let ipc = |m| run(&input, m, 256).ipc();
        let oracle = ipc(ModelKind::Oracle);
        let nwr_nfd = ipc(ModelKind::NwrNfd);
        let nwr_fd = ipc(ModelKind::NwrFd);
        let wr_fd = ipc(ModelKind::WrFd);
        let base = ipc(ModelKind::Base);
        assert!(
            oracle >= nwr_nfd * 0.98,
            "oracle {oracle} nwr_nfd {nwr_nfd}"
        );
        assert!(
            nwr_nfd >= nwr_fd * 0.999,
            "nwr_nfd {nwr_nfd} nwr_fd {nwr_fd}"
        );
        assert!(nwr_fd >= base * 0.999, "nwr_fd {nwr_fd} base {base}");
        assert!(wr_fd >= base * 0.999, "wr_fd {wr_fd} base {base}");
        assert!(oracle > base, "mispredictions must cost something");
    }

    #[test]
    fn oracle_monotonic_in_window() {
        let p = Workload::JpegLike.build(&WorkloadParams { scale: 60, seed: 4 });
        let input = StudyInput::build(&p, 50_000).unwrap();
        let mut last = 0.0;
        for w in [32, 64, 128, 256] {
            let ipc = run(&input, ModelKind::Oracle, w).ipc();
            assert!(ipc >= last * 0.999, "window {w}: {ipc} < {last}");
            last = ipc;
        }
    }

    #[test]
    fn wrong_path_fetch_only_in_wr_models() {
        let p = Workload::GoLike.build(&WorkloadParams {
            scale: 200,
            seed: 5,
        });
        let input = StudyInput::build(&p, 30_000).unwrap();
        assert!(input.mispredictions() > 0);
        assert_eq!(run(&input, ModelKind::NwrNfd, 256).wrong_path_fetched, 0);
        assert_eq!(run(&input, ModelKind::Base, 256).wrong_path_fetched, 0);
        assert!(run(&input, ModelKind::WrFd, 256).wrong_path_fetched > 0);
    }

    #[test]
    fn empty_input() {
        let mut a = Asm::new();
        a.halt();
        let p = a.assemble().unwrap();
        let input = StudyInput::build(&p, 0).unwrap();
        let r = run(&input, ModelKind::WrFd, 64);
        assert_eq!(r.retired, 0);
    }
}
