//! Robustness under an unreliable network: the group survives drops,
//! duplicates, and reordering.
//!
//! The paper assumes an *asynchronous insecure* network; this example
//! joins over a lossy simulator (the retransmission layer recovers lost
//! handshake and admin frames), then pushes a traffic burst through
//! duplicating, reordering wires. The protocol's replay defenses double
//! as idempotence under network faults: duplicated admin messages are
//! re-acknowledged from the ARQ cache rather than double-applied, the
//! stop-and-wait nonce chain serializes reordered admin traffic, and the
//! group data the leader relays rides the broadcast watermark, so a
//! duplicated or overtaken relay is dropped rather than delivered twice.
//!
//! ```text
//! cargo run -p enclaves-examples --bin lossy_network
//! ```

use enclaves_core::config::{LeaderConfig, RekeyPolicy};
use enclaves_core::directory::Directory;
use enclaves_core::protocol::MemberEvent;
use enclaves_core::runtime::{LeaderService, MemberRuntime, ServiceConfig};
use enclaves_net::sim::{SimConfig, SimNet};
use enclaves_wire::ActorId;
use std::collections::HashSet;
use std::time::Duration;

const WAIT: Duration = Duration::from_secs(10);
const BURST: usize = 20;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Even the join happens over a lossy network: the handshake ARQ
    // retransmits until the exchange completes.
    let net = SimNet::new(SimConfig {
        drop_prob: 0.10,
        duplicate_prob: 0.05,
        reorder_prob: 0.05,
        seed: 2001,
        ..SimConfig::default()
    });
    let listener = net.listen("leader")?;

    let users = ["alice", "bob"];
    let mut directory = Directory::new();
    for user in users {
        directory.register_password(&ActorId::new(user)?, &format!("{user}-pw"))?;
    }
    let service = LeaderService::spawn(Box::new(listener), ServiceConfig::default());
    let leader = service.add_group(
        ActorId::new("leader")?,
        directory,
        LeaderConfig {
            rekey_policy: RekeyPolicy::Manual,
            ..LeaderConfig::default()
        },
    )?;

    let mut members = Vec::new();
    for user in users {
        let member = MemberRuntime::connect(
            net.dialer("leader"),
            ActorId::new(user)?,
            ActorId::new("leader")?,
            &format!("{user}-pw"),
        )?;
        member.wait_joined(WAIT)?;
        members.push(member);
    }
    println!("group formed over a 10%-loss network; now bursting traffic");

    net.set_config(SimConfig {
        drop_prob: 0.05,
        duplicate_prob: 0.10,
        reorder_prob: 0.15,
        seed: 2001,
        ..SimConfig::default()
    });

    // A burst of admin broadcasts and group data through the faulty wires.
    let bob = members[1].obs_registry();
    let admin_accepted = || bob.snapshot().counter("member.admin_accepted");
    let baseline = admin_accepted();
    for i in 0..BURST {
        leader.broadcast(&[i as u8])?;
        // Both members chat, so every wire keeps flowing (a held-back
        // frame is released by the next frame on its wire).
        members[0].send_group_data(&[100 + i as u8])?;
        members[1].send_group_data(&[200 + i as u8])?;
    }

    // Keep the faults on until at least half the burst crossed the wire,
    // so duplication/reordering demonstrably hit live traffic.
    let deadline = std::time::Instant::now() + WAIT;
    while admin_accepted() < baseline + (BURST as u64) / 2 {
        if std::time::Instant::now() > deadline {
            return Err("burst stalled under faults".into());
        }
        std::thread::sleep(Duration::from_millis(10));
    }

    // Back to a clean network, plus one flush message per channel so any
    // held-back (reordered) frame is released.
    net.set_config(SimConfig {
        seed: 2001,
        ..SimConfig::default()
    });
    leader.broadcast(b"flush")?;
    members[0].send_group_data(b"flush")?;
    members[1].send_group_data(b"flush")?;

    // Collect bob's view until every admin broadcast and alice's flush
    // arrived.
    let mut admin_heard = 0;
    let mut data = Vec::new();
    let deadline = std::time::Instant::now() + WAIT;
    while (admin_heard < BURST + 1 || !data.iter().any(|d| d == b"flush"))
        && std::time::Instant::now() < deadline
    {
        if let Ok(event) = members[1].events().recv_timeout(Duration::from_millis(100)) {
            match event {
                MemberEvent::AdminData(_) => admin_heard += 1,
                MemberEvent::Broadcast { data: d, .. } => data.push(d),
                _ => {}
            }
        }
    }
    let distinct: HashSet<&Vec<u8>> = data.iter().collect();

    println!("network counters:\n{}", net.obs_registry().snapshot());
    println!(
        "bob applied {admin_heard}/{} admin broadcasts exactly once \
         (duplicates rejected as replays: {} rejections) and received \
         {}/{} of alice's group-data payloads, each at most once",
        BURST + 1,
        bob.snapshot().counter("member.rejected"),
        data.len(),
        BURST + 1
    );
    assert_eq!(
        admin_heard,
        BURST + 1,
        "every admin broadcast must be applied exactly once"
    );
    assert_eq!(
        distinct.len(),
        data.len(),
        "each group-data payload must arrive at most once"
    );
    assert!(
        distinct.contains(&b"flush".to_vec()),
        "the post-flush group-data payload must arrive"
    );

    for member in members {
        member.leave()?;
    }
    service.shutdown();
    println!("\nthe group stayed consistent under duplication and reordering.");
    Ok(())
}
