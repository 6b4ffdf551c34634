//! `churn_rekey`: a steady enclave under membership churn.
//!
//! Each cycle is *leave, join, expel, join, rekey*, then one 256-byte
//! data broadcast that every witness must open and the cycle's expelled
//! session must not. Victims are drawn by seed from the witnesses — the
//! only sessions that are current, which is what makes the expelled
//! session's failure to open mean something — and each replacement is
//! drawn by seed from a pool of spare identities and takes the departed
//! witness's place, so the roster and the witness count stay constant.

use super::world::{WireCounts, World};
use super::{crypto_probes, Fault, LayerCounts, Probes, Round, RunConfig, Workload, WITNESSES};
use crate::seed::SeedRng;
use crate::sut::{Fail, Identity, Member};
use crate::trace::{Tracer, NO_SPAN};
use std::path::Path;
use std::time::Instant;

const TAG: &str = "churn";
const SPARES: usize = 64;
const DATA_LEN: usize = 256;
/// Timed operations in one cycle.
const OPS_PER_CYCLE: u64 = 5;

pub struct ChurnRekey {
    seed: u64,
    members: usize,
    witnesses: usize,
    cycles: usize,
    fault: Fault,
    largest_sealed: usize,
}

impl ChurnRekey {
    pub fn new(cfg: &RunConfig) -> Self {
        ChurnRekey {
            seed: cfg.seed,
            members: cfg.scale.pick(1024, 32),
            witnesses: cfg.scale.pick(WITNESSES, 4),
            cycles: cfg.scale.pick(400, 12),
            fault: cfg.fault,
            largest_sealed: 0,
        }
    }
}

/// The enclave plus the bookkeeping that pairs each witness session with
/// its identity.
struct Steady {
    world: World,
    users: Vec<Identity>,
    /// `witness_ids[k]` is the index in `users` of `world.witnesses[k]`.
    witness_ids: Vec<usize>,
    spares: Vec<usize>,
    rng: SeedRng,
}

impl Steady {
    fn take_witness(&mut self) -> (usize, Member) {
        let k = self.rng.below(self.witness_ids.len());
        let id = self.witness_ids.swap_remove(k);
        (id, self.world.witnesses.swap_remove(k))
    }

    fn join_spare(&mut self, tr: &mut Tracer) -> Result<(), Fail> {
        let k = self.rng.below(self.spares.len());
        let id = self.spares.swap_remove(k);
        let member_seed = self.rng.next_u64();
        let member = self.world.join(tr, &self.users[id], member_seed)?;
        self.world.witnesses.push(member);
        self.witness_ids.push(id);
        Ok(())
    }

    /// One cycle; each of its five operations is timed on its own.
    fn cycle(&mut self, tr: &mut Tracer, round: &mut Round, timed: bool) {
        let mut outsider = None;
        for step in 0..OPS_PER_CYCLE {
            let name = ["op.leave", "op.join", "op.expel", "op.join", "op.rekey"][step as usize];
            let ticked = self.world.step(tr);
            let op = if timed { tr.begin_op(name) } else { NO_SPAN };
            let started = Instant::now();
            let outcome = ticked.and_then(|()| match step {
                0 => {
                    let (id, member) = self.take_witness();
                    self.spares.push(id);
                    self.world.leave(tr, member)
                }
                2 => {
                    let (id, member) = self.take_witness();
                    self.spares.push(id);
                    outsider = Some(member);
                    self.world.expel(tr, &self.users[id])
                }
                4 => self.world.rekey(tr),
                _ => self.join_spare(tr),
            });
            tr.end_op(op);
            if timed {
                round.op(started, outcome);
            } else if let Err(why) = outcome {
                round.note(why);
            }
        }
        let mut payload = [0u8; DATA_LEN];
        self.rng.fill(&mut payload);
        if let Err(why) = self.world.data_check(tr, &payload, outsider.as_mut()) {
            if timed {
                round.fail_round(why);
            } else {
                round.note(why);
            }
        }
    }
}

impl Workload for ChurnRekey {
    fn name(&self) -> &'static str {
        "churn_rekey"
    }

    fn round(&mut self, tr: &mut Tracer, _dir: &Path) -> Result<Round, Fail> {
        let mut round = Round::default();
        let setup = Instant::now();
        let mut rng = SeedRng::new(self.seed).fork(3);
        let users: Vec<Identity> = (0..self.members + SPARES).map(Identity::numbered).collect();
        let mut order: Vec<usize> = (0..users.len()).collect();
        rng.shuffle(&mut order);
        let spares = order.split_off(self.members);
        // The witnesses are a seeded sample of the join order, so their
        // leaves are spread over the key tree.
        let mut is_witness = vec![false; self.members];
        let mut positions: Vec<usize> = (0..self.members).collect();
        rng.shuffle(&mut positions);
        for &p in &positions[..self.witnesses] {
            is_witness[p] = true;
        }
        let mut steady = Steady {
            world: World::new(TAG, &users, rng.next_u64(), None)?,
            users,
            witness_ids: Vec::new(),
            spares,
            rng,
        };
        for (position, &id) in order.iter().enumerate() {
            steady.world.step(tr)?;
            let member_seed = steady.rng.next_u64();
            let member = steady.world.join(tr, &steady.users[id], member_seed)?;
            if is_witness[position] {
                steady.world.witnesses.push(member);
                steady.witness_ids.push(id);
            }
        }
        for _ in 0..self.cycles.div_ceil(100) {
            steady.cycle(tr, &mut round, false);
        }
        round.setup_s = setup.elapsed().as_secs_f64();

        let leader_before = steady.world.leader.counters();
        steady.world.wire = WireCounts::default();
        let timed = Instant::now();
        for cycle in 0..self.cycles {
            if self.fault == Fault::FlippedBroadcastByte && cycle == self.cycles / 2 {
                steady.world.plant_flipped_byte = true;
            }
            steady.cycle(tr, &mut round, true);
        }
        round.timed_s = timed.elapsed().as_secs_f64();
        let ops = round.attempted;
        let wire = steady.world.wire;
        round.work_units = round.latencies_ns.len() as f64;
        round.bytes = wire.leader_bytes_out;
        round.bytes_over = ops;

        if round.failed == 0 && steady.world.leader.roster().len() != self.members {
            round.fail_round("roster did not stay at its steady size".into());
        }
        let leader = steady.world.leader.counters().since(&leader_before);
        if leader.rejected != 0 {
            round.fail_round(format!("the leader rejected {} frames", leader.rejected));
        }
        self.largest_sealed = self.largest_sealed.max(wire.welcome_bytes_last as usize);
        round.counts = LayerCounts {
            ops,
            leader,
            wire,
            changes: ops,
            ..LayerCounts::default()
        };
        Ok(round)
    }

    fn roster_bound(&self) -> Option<usize> {
        Some(self.members)
    }

    fn probes(&mut self, tr: &mut Tracer, _dir: &Path) -> Result<Probes, Fail> {
        Ok(crypto_probes(tr, self.largest_sealed))
    }
}
