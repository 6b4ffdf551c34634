//! A secure group chat over real TCP — the groupware application the
//! paper's introduction motivates.
//!
//! One process hosts the leader and four chat participants on loopback
//! TCP. Each participant sends a few lines; every other participant
//! receives them through the leader relay, sealed under the group key.
//! Midway, one participant leaves and the on-leave rekey policy locks them
//! out of subsequent traffic.
//!
//! ```text
//! cargo run -p enclaves-examples --bin secure_chat
//! ```

use enclaves_core::config::{LeaderConfig, RekeyPolicy};
use enclaves_core::directory::Directory;
use enclaves_core::protocol::MemberEvent;
use enclaves_core::runtime::{LeaderService, MemberRuntime, ServiceConfig};
use enclaves_net::{MuxConfig, MuxNet};
use enclaves_wire::ActorId;
use std::time::Duration;

const WAIT: Duration = Duration::from_secs(10);

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The leader's sockets live on one readiness loop; the participants
    // dial from a second one, as separate processes would.
    let server = MuxNet::spawn(MuxConfig::default());
    let endpoint = server.listen_events("127.0.0.1:0".parse()?, 1)?;
    let addr = endpoint.local_addr();
    println!("leader listening on {addr}");
    let service = LeaderService::spawn_mux(endpoint, ServiceConfig::default());
    let client = MuxNet::spawn(MuxConfig::default());

    let users = ["alice", "bob", "carol", "dave"];
    let mut directory = Directory::new();
    for user in users {
        directory.register_password(&ActorId::new(user)?, &format!("{user}-secret"))?;
    }
    let leader = service.add_group(
        ActorId::new("leader")?,
        directory,
        LeaderConfig {
            rekey_policy: RekeyPolicy::OnLeave,
            ..LeaderConfig::default()
        },
    )?;

    // Everyone joins over TCP.
    let mut members = Vec::new();
    for user in users {
        let member = MemberRuntime::connect(
            client.dialer(addr),
            ActorId::new(user)?,
            ActorId::new("leader")?,
            &format!("{user}-secret"),
        )?;
        member.wait_joined(WAIT)?;
        members.push(member);
    }
    println!(
        "{} participants joined; epoch {:?}\n",
        members.len(),
        leader.epoch()
    );

    // A round of chat: each participant says hello; everyone else hears it.
    for (i, user) in users.iter().enumerate() {
        let line = format!("<{user}> hello from {user}!");
        members[i].send_group_data(line.as_bytes())?;
        for (j, other) in members.iter().enumerate() {
            if i == j {
                continue;
            }
            let event = other.wait_event(WAIT, |e| matches!(e, MemberEvent::Broadcast { .. }))?;
            if let MemberEvent::Broadcast { data, .. } = event {
                if j == (i + 1) % users.len() {
                    println!("  {:6} heard: {}", users[j], String::from_utf8_lossy(&data));
                }
            }
        }
    }

    // Dave leaves; the policy rekeys.
    let epoch_before = leader.epoch();
    let dave = members.pop().expect("dave");
    dave.leave()?;
    leader.wait_member(&ActorId::new("alice")?, WAIT)?; // leader still up
    for member in &members {
        member.wait_event(WAIT, |e| matches!(e, MemberEvent::MemberLeft(_)))?;
    }
    // Wait for the new epoch everywhere.
    let deadline = std::time::Instant::now() + WAIT;
    while members.iter().any(|m| m.group_epoch() == epoch_before) {
        if std::time::Instant::now() > deadline {
            return Err("rekey propagation timed out".into());
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    println!(
        "\ndave left; group rekeyed {:?} -> {:?} (dave's key is now useless)",
        epoch_before,
        leader.epoch()
    );

    // Chat continues without dave.
    members[0].send_group_data(b"<alice> just us now")?;
    let event = members[1].wait_event(WAIT, |e| matches!(e, MemberEvent::Broadcast { .. }))?;
    if let MemberEvent::Broadcast { data, .. } = event {
        println!("  bob    heard: {}", String::from_utf8_lossy(&data));
    }

    for member in members {
        member.leave()?;
    }
    service.shutdown();
    server.shutdown();
    client.shutdown();
    println!("\nchat ended cleanly");
    Ok(())
}
