//! Issue, execution, writeback and value-driven selective reissue.
//!
//! All three stages are event-driven: the issue stage picks from a ready
//! set fed by the age queue and waiter chains, writeback pops a completion
//! heap instead of scanning for finished executions, and the reissue
//! cascades drain per-register consumer chains / per-address load lists.
//! Every drain snapshots its candidates, filters them with the exact
//! predicate the old full-window walk used, sorts the survivors by window
//! key, and re-checks liveness while processing — so the observable event
//! stream is byte-identical to the walk-based implementation
//! (`tests/rob_equivalence.rs` pins this).

use crate::engine::{EState, Pipeline};
use crate::rob::InstId;
use crate::wakeup::Status;
use ci_emu::exec::{alu_result, branch_taken, effective_addr};
use ci_isa::InstClass;
use ci_obs::{Event, Probe, Profiler, ReissueKind};

impl<P: Probe, F: Profiler> Pipeline<'_, P, F> {
    /// Select and issue up to `width` ready instructions, oldest first.
    /// Instructions remain in the window and may issue again after
    /// invalidation (selective reissue, Section 3.2.4).
    pub(crate) fn issue_stage(&mut self) {
        // Entries whose two-cycle age gate opens now become candidates.
        let mut due = self.take_ids();
        self.wake.take_due_young(self.now, &mut due);
        for id in due.drain(..) {
            self.classify_for_issue(id);
        }
        self.put_ids(due);

        // Validate the ready set against the full issue predicate and order
        // the survivors by window position. The set may hold stale ids
        // (squashed entries, lapsed flags); the predicate filters them.
        let mut cands = self.take_keyed();
        self.activity.ready_examined += self.wake.ready.len() as u64;
        for i in 0..self.wake.ready.len() {
            let id = self.wake.ready[i];
            if !self.wake.is_ready_flagged(id) || !self.rob.alive(id) {
                continue;
            }
            let e = self.rob.get(id);
            if e.state != EState::Waiting || self.now < e.fetched_at + 2 {
                continue;
            }
            if !e.srcs.iter().flatten().all(|s| self.regs.ready(s.phys)) {
                continue;
            }
            cands.push((self.rob.key(id), id));
        }
        cands.sort_unstable();
        cands.dedup();
        cands.truncate(self.cfg.width);
        self.activity.cur_issued += cands.len() as u32;
        for &(_, id) in &cands {
            self.wake.clear_ready(id);
            self.execute(id);
        }
        self.put_keyed(cands);

        // Compact the ready vector: entries that issued, died, or were
        // re-parked have lost their flag.
        let mut ready = std::mem::take(&mut self.wake.ready);
        ready.retain(|&id| self.wake.is_ready_flagged(id));
        self.wake.ready = ready;
    }

    /// Execute `id` immediately, scheduling its completion.
    fn execute(&mut self, id: InstId) {
        let (class, inst, pc, srcs) = {
            let e = self.rob.get(id);
            (e.class, e.inst, e.pc, e.srcs)
        };
        // Operand lookup by architectural register: `sources()` omits r0 and
        // compacts, so positional indexing would misattribute operands.
        let lookup = |r: ci_isa::Reg| -> u64 {
            if r.is_zero() {
                0
            } else {
                srcs.iter()
                    .flatten()
                    .find(|s| s.arch == r)
                    .map_or(0, |s| self.regs.value(s.phys))
            }
        };
        let a = lookup(inst.rs1);
        let b = lookup(inst.rs2);
        let src_dspec = srcs.iter().flatten().any(|s| self.regs.dspec(s.phys));

        let mut result = 0u64;
        let mut addr = None;
        let mut exec_next = None;
        let mut taken = false;
        let mut src_store = None;
        let mut dspec = src_dspec;

        let base_latency = self.cfg.latencies.execute(class);
        let mut done_at = self.now + base_latency;

        match class {
            InstClass::IntAlu | InstClass::IntMul | InstClass::IntDiv => {
                result = alu_result(inst.op, a, b, inst.imm);
            }
            InstClass::Load => {
                let ea = effective_addr(a, inst.imm);
                addr = Some(ea);
                let key = self.rob.key(id);
                // Youngest older Done store to the same address forwards; any
                // older store without final values makes the load data-
                // speculative. The store membership set replaces the window
                // walk: an unordered pass computes the same two facts.
                let mut forward: Option<(u64, InstId)> = None;
                let mut unknown_older_store = false;
                self.activity.store_scans += self.wake.stores.len() as u64;
                for i in 0..self.wake.stores.len() {
                    let sid = self.wake.stores[i];
                    if !self.rob.alive(sid) {
                        continue;
                    }
                    let sk = self.rob.key(sid);
                    if sk >= key {
                        continue;
                    }
                    let se = self.rob.get(sid);
                    if se.state == EState::Done {
                        if se.addr == Some(ea) && forward.is_none_or(|(fk, _)| fk < sk) {
                            forward = Some((sk, sid));
                        }
                    } else {
                        unknown_older_store = true;
                    }
                }
                match forward {
                    Some((_, sid)) => {
                        result = self.rob.get(sid).result;
                        src_store = Some(sid);
                        done_at = self.now + base_latency + 1; // store-queue forward
                    }
                    None => {
                        result = self.memory.read(ea);
                        done_at = self.now + base_latency + self.cache.access(ea);
                    }
                }
                dspec = dspec || unknown_older_store;
            }
            InstClass::Store => {
                let ea = effective_addr(a, inst.imm);
                addr = Some(ea);
                result = b; // the stored value
            }
            InstClass::CondBranch => {
                taken = branch_taken(inst.op, a, b);
                exec_next = Some(if taken {
                    inst.static_target().unwrap_or(pc.next())
                } else {
                    pc.next()
                });
            }
            InstClass::Jump => exec_next = Some(inst.static_target().unwrap_or(pc.next())),
            InstClass::Call => {
                result = u64::from(pc.next().0);
                exec_next = Some(inst.static_target().unwrap_or(pc.next()));
            }
            InstClass::Return | InstClass::IndirectJump => {
                result = u64::from(pc.next().0);
                exec_next = Some(ci_isa::Pc(a.wrapping_add(inst.imm as u64) as u32));
            }
            InstClass::Halt => exec_next = Some(pc.next()),
        }

        let reissue = {
            let e = self.rob.get_mut(id);
            e.issue_count += 1;
            e.result = result;
            e.addr = addr;
            e.exec_next = exec_next;
            e.taken = taken;
            e.src_store = src_store;
            e.dspec = dspec;
            e.issue_count > 1
        };
        self.set_state(id, EState::Executing { done_at });
        self.mark_unresolved(id);
        // Wakeup registration: the completion event, consumer membership for
        // every source register (live producers only — a dead producer can
        // never complete, so the registration would never drain), and the
        // executed-load address index.
        self.wake.schedule_completion(id, done_at);
        for s in srcs.iter().flatten() {
            if self
                .wake
                .producer_of(s.phys.0)
                .is_some_and(|pid| self.rob.alive(pid))
            {
                self.wake.add_consumer(s.phys.0, id);
            }
        }
        if class == InstClass::Load {
            self.wake
                .register_load(id, addr.expect("executed load has addr"));
        }
        self.probe
            .record(self.now, Event::Issue { pc: pc.0, reissue });
    }

    /// Complete instructions whose execution finishes this cycle: write
    /// results, cascade invalidations to consumers that issued under stale
    /// versions, and run memory-ordering checks for stores.
    pub(crate) fn writeback(&mut self) {
        // Compact the store membership set (squashed stores drop out); done
        // here so disambiguation passes stay proportional to live stores.
        {
            let rob = &self.rob;
            self.wake.stores.retain(|&s| rob.alive(s));
        }
        let mut due = self.take_ids();
        self.wake.take_due_completions(self.now, &mut due);
        if due.is_empty() {
            self.put_ids(due);
            return;
        }
        // Snapshot-filter: events are candidates; an entry re-issued with a
        // different completion cycle, squashed, or already completed is
        // stale. Survivors are processed in window order, exactly as the
        // old full scan visited them, with a liveness re-check because a
        // cascade from an earlier completion this cycle may invalidate or
        // even squash (restart cancellation) a later one.
        // The filter reads the packed status/done_at columns (kept in sync
        // by `set_state`), not the entry payloads.
        let mut cands = self.take_keyed();
        for &id in &due {
            if self.rob.alive(id)
                && self.wake.status_of(id) == Status::Executing
                && self.wake.done_at_of(id) <= self.now
            {
                cands.push((self.rob.key(id), id));
            }
        }
        cands.sort_unstable();
        cands.dedup();
        self.activity.completions_stale += (due.len() - cands.len()) as u64;
        self.put_ids(due);
        for &(_, id) in &cands {
            if !self.rob.alive(id)
                || self.wake.status_of(id) != Status::Executing
                || self.wake.done_at_of(id) > self.now
            {
                continue;
            }
            let (dest, class, dspec, result, pc) = {
                let e = self.rob.get(id);
                (e.dest, e.class, e.dspec, e.result, e.pc)
            };
            self.set_state(id, EState::Done);
            self.activity.cur_completed += 1;
            self.probe.record(self.now, Event::Complete { pc: pc.0 });
            if let Some((_, p)) = dest {
                self.regs.write(p, result, dspec);
                self.wake_waiters_of(p);
                self.invalidate_consumers_of(p, id);
            }
            if class == InstClass::Store {
                self.store_violation_check(id);
            }
        }
        self.put_keyed(cands);
    }

    /// Re-evaluate the issue wait of entries parked on a just-written
    /// register (they become ready, or re-park on another source).
    fn wake_waiters_of(&mut self, p: crate::regfile::PhysReg) {
        let mut woken = self.take_ids();
        self.wake.drain_waiters(p.0, &mut woken);
        for id in woken.drain(..) {
            self.classify_for_issue(id);
        }
        self.put_ids(woken);
    }

    /// Invalidate issued consumers of physical register `p` (they issued
    /// before this write and must reissue with the new value).
    fn invalidate_consumers_of(&mut self, p: crate::regfile::PhysReg, producer: InstId) {
        let pkey = self.rob.key(producer);
        let mut drained = self.take_ids();
        self.wake.drain_consumers(p.0, &mut drained);
        if drained.is_empty() {
            self.put_ids(drained);
            return;
        }
        let mut victims = self.take_keyed();
        for &id in &drained {
            if id == producer || !self.rob.alive(id) {
                continue;
            }
            let k = self.rob.key(id);
            if k <= pkey {
                continue;
            }
            let e = self.rob.get(id);
            if e.state == EState::Waiting {
                continue;
            }
            if !e.srcs.iter().flatten().any(|s| s.phys == p) {
                continue;
            }
            victims.push((k, id));
        }
        self.put_ids(drained);
        victims.sort_unstable();
        victims.dedup();
        for &(_, v) in &victims {
            // Invalidating one victim can cascade (cancelled restarts squash
            // instructions), killing later victims before their turn.
            if !self.rob.alive(v) {
                continue;
            }
            let pc = self.rob.get(v).pc;
            self.probe.record(
                self.now,
                Event::Reissue {
                    pc: pc.0,
                    kind: ReissueKind::Value,
                },
            );
            self.invalidate(v);
        }
        self.put_keyed(victims);
    }

    /// Invalidate an issued/completed instruction so it reissues.
    pub(crate) fn invalidate(&mut self, id: InstId) {
        if !self.rob.alive(id) {
            return;
        }
        {
            let e = self.rob.get(id);
            if e.state == EState::Waiting {
                return;
            }
            // An invalidated store's forwarded value is revoked: dependent
            // loads must reissue (they will re-disambiguate).
            if e.class == InstClass::Store {
                self.reissue_loads_of_squashed_store(id);
            }
        }
        {
            let e = self.rob.get_mut(id);
            if e.state == EState::Waiting {
                return;
            }
            if e.survived && e.saved_done {
                e.saved_done = false;
                e.discarded = true;
            }
        }
        self.set_state(id, EState::Waiting);
        self.mark_unresolved(id);
        // A restart whose branch is re-executing may be refilling a path the
        // new outcome contradicts: cancel it (a fresh recovery will follow
        // the re-execution if still needed).
        self.cancel_restarts_of(id);
        // Back to the issue pool.
        self.classify_for_issue(id);
    }

    /// When a store resolves (or re-resolves) its address and data: younger
    /// loads that executed against the same address without seeing this
    /// store must reissue (memory-ordering violation, repaired selectively).
    fn store_violation_check(&mut self, store: InstId) {
        let skey = self.rob.key(store);
        let saddr = self.rob.get(store).addr;
        let Some(sa) = saddr else { return };
        let mut cand = self.take_ids();
        self.wake.loads_at(sa, &mut cand);
        let mut victims = self.take_keyed();
        for &id in &cand {
            if !self.rob.alive(id) {
                continue;
            }
            let k = self.rob.key(id);
            if k <= skey {
                continue;
            }
            let e = self.rob.get(id);
            if e.class != InstClass::Load || e.state == EState::Waiting {
                continue;
            }
            if e.addr != saddr {
                continue;
            }
            // The load saw an older store (or memory); if its source is
            // older than this store — including already-retired sources,
            // which are older than anything in the window — it missed
            // this store's value.
            let missed = match e.src_store {
                Some(src) => !self.rob.alive(src) || self.rob.key(src) < skey,
                None => true,
            };
            if missed {
                victims.push((k, id));
            }
        }
        self.put_ids(cand);
        victims.sort_unstable();
        victims.dedup();
        for &(_, v) in &victims {
            if !self.rob.alive(v) {
                continue;
            }
            let pc = {
                let e = self.rob.get_mut(v);
                e.mem_reissues += 1;
                e.pc
            };
            self.probe.record(
                self.now,
                Event::Reissue {
                    pc: pc.0,
                    kind: ReissueKind::Memory,
                },
            );
            self.invalidate(v);
        }
        self.put_keyed(victims);
    }

    /// Loads that forwarded from a store being squashed must reissue. Any
    /// non-`Waiting` load with `src_store == store` executed at the store's
    /// current address (invalidating the store repairs its loads first), so
    /// the per-address index finds every victim.
    pub(crate) fn reissue_loads_of_squashed_store(&mut self, store: InstId) {
        let Some(sa) = self.rob.get(store).addr else {
            return;
        };
        let mut cand = self.take_ids();
        self.wake.loads_at(sa, &mut cand);
        let mut victims = self.take_keyed();
        for &id in &cand {
            if !self.rob.alive(id) {
                continue;
            }
            let e = self.rob.get(id);
            if e.class != InstClass::Load || e.state == EState::Waiting {
                continue;
            }
            if e.src_store != Some(store) {
                continue;
            }
            victims.push((self.rob.key(id), id));
        }
        self.put_ids(cand);
        victims.sort_unstable();
        victims.dedup();
        for &(_, v) in &victims {
            if !self.rob.alive(v) {
                continue;
            }
            let pc = {
                let e = self.rob.get_mut(v);
                e.mem_reissues += 1;
                e.pc
            };
            self.probe.record(
                self.now,
                Event::Reissue {
                    pc: pc.0,
                    kind: ReissueKind::Memory,
                },
            );
            self.invalidate(v);
        }
        self.put_keyed(victims);
    }
}
