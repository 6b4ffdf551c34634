//! `join_storm`: members join one empty enclave back to back.
//!
//! Closed loop, one handshake in flight. The control plane's write path
//! with a growing roster: each Welcome carries the whole roster, so the
//! cost of a join grows with the members before it.

use super::world::{WireCounts, World};
use super::{crypto_probes, LayerCounts, Probes, Round, RunConfig, Workload, WITNESSES};
use crate::seed::SeedRng;
use crate::sut::{Fail, Identity};
use crate::trace::Tracer;
use std::path::Path;
use std::time::Instant;

const TAG: &str = "storm";

pub struct JoinStorm {
    seed: u64,
    members: usize,
    largest_sealed: usize,
}

impl JoinStorm {
    pub fn new(cfg: &RunConfig) -> Self {
        JoinStorm {
            seed: cfg.seed,
            members: cfg.scale.pick(2048, 64),
            largest_sealed: 0,
        }
    }
}

impl Workload for JoinStorm {
    fn name(&self) -> &'static str {
        "join_storm"
    }

    fn round(&mut self, tr: &mut Tracer, _dir: &Path) -> Result<Round, Fail> {
        let mut round = Round::default();
        let setup = Instant::now();
        let mut rng = SeedRng::new(self.seed).fork(1);
        let users: Vec<Identity> = (0..self.members).map(Identity::numbered).collect();
        let mut order: Vec<usize> = (0..self.members).collect();
        rng.shuffle(&mut order);
        let mut world = World::new(TAG, &users, rng.next_u64(), None)?;
        let warm = self.members.div_ceil(100);
        for &i in &order[..warm] {
            world.step(tr)?;
            let member = world.join(tr, &users[i], rng.next_u64())?;
            if world.witnesses.len() < WITNESSES {
                world.witnesses.push(member);
            }
        }
        round.setup_s = setup.elapsed().as_secs_f64();

        let leader_before = world.leader.counters();
        world.wire = WireCounts::default();
        let timed = Instant::now();
        for &i in &order[warm..] {
            let member_seed = rng.next_u64();
            let ticked = world.step(tr);
            let op = tr.begin_op("op.join");
            let started = Instant::now();
            let joined = ticked.and_then(|()| world.join(tr, &users[i], member_seed));
            tr.end_op(op);
            round.op(started, joined.as_ref().map(|_| ()).map_err(Clone::clone));
            if let Ok(member) = joined {
                if world.witnesses.len() < WITNESSES {
                    world.witnesses.push(member);
                }
            }
        }
        round.timed_s = timed.elapsed().as_secs_f64();
        let ops = round.attempted;
        let wire = world.wire;
        round.work_units = round.latencies_ns.len() as f64;
        round.bytes = wire.leader_bytes_out;
        round.bytes_over = ops;

        // The roster the leader ends with is the set that joined.
        let mut expected: Vec<String> = users.iter().map(|u| u.name().to_string()).collect();
        expected.sort_unstable();
        if round.failed == 0 && world.leader.roster() != expected {
            round.fail_round("final roster differs from the members that joined".into());
        }
        let leader = world.leader.counters().since(&leader_before);
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
