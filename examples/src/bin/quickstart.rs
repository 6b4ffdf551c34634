//! Quickstart: a three-member secure group on the in-process simulated
//! network.
//!
//! Demonstrates the full public API path: registering users, spawning the
//! leader, joining members over the hardened protocol, exchanging group
//! data through the leader relay, rotating the group key, and leaving.
//!
//! ```text
//! cargo run -p enclaves-examples --bin quickstart
//! ```

use enclaves_core::config::{LeaderConfig, RekeyPolicy};
use enclaves_core::directory::Directory;
use enclaves_core::protocol::MemberEvent;
use enclaves_core::runtime::{LeaderService, MemberRuntime, ServiceConfig};
use enclaves_net::sim::{SimConfig, SimNet};
use enclaves_wire::ActorId;
use std::time::Duration;

const WAIT: Duration = Duration::from_secs(5);

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. An insecure network (here: in-process simulation; see the
    //    secure_chat example for real TCP).
    let net = SimNet::new(SimConfig::default());
    let listener = net.listen("leader")?;

    // 2. The leader knows each prospective member's password in advance
    //    (the Enclaves trust model).
    let users = ["alice", "bob", "carol"];
    let mut directory = Directory::new();
    for user in users {
        directory.register_password(&ActorId::new(user)?, &format!("{user}-password"))?;
    }

    // One leader service on the listener, hosting this group.
    let service = LeaderService::spawn(Box::new(listener), ServiceConfig::default());
    let leader = service.add_group(
        ActorId::new("leader")?,
        directory,
        LeaderConfig {
            rekey_policy: RekeyPolicy::OnJoinAndLeave,
            ..LeaderConfig::default()
        },
    )?;
    println!("leader up; members join one by one\n");

    // 3. Members join over the improved 3-message protocol.
    let mut members = Vec::new();
    for user in users {
        let member = MemberRuntime::connect(
            net.dialer("leader"),
            ActorId::new(user)?,
            ActorId::new("leader")?,
            &format!("{user}-password"),
        )?;
        member.wait_joined(WAIT)?;
        println!(
            "  {user:6} joined: roster={:?} group-key epoch={:?}",
            member
                .roster()
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>(),
            member.group_epoch()
        );
        members.push(member);
    }
    leader.wait_member(&ActorId::new("carol")?, WAIT)?;

    // Joins under the on-join rekey policy rotate the key; wait until
    // every member has installed the current epoch before using it.
    let target = leader.epoch();
    let deadline = std::time::Instant::now() + WAIT;
    while members.iter().any(|m| m.group_epoch() != target) {
        if std::time::Instant::now() > deadline {
            return Err("epoch propagation timed out".into());
        }
        std::thread::sleep(Duration::from_millis(10));
    }

    // 4. Group communication: alice → everyone, relayed by the leader,
    //    sealed under the shared group key.
    members[0].send_group_data(b"hello, enclave!")?;
    for (user, member) in users.iter().zip(&members).skip(1) {
        let event = member.wait_event(WAIT, |e| matches!(e, MemberEvent::Broadcast { .. }))?;
        if let MemberEvent::Broadcast { from, data, .. } = event {
            println!(
                "  {user:6} received {:?} from {from}",
                String::from_utf8_lossy(&data)
            );
        }
    }

    // 5. A manual rekey: every member installs the new epoch.
    let before = members[1].group_epoch();
    leader.rekey()?;
    members[1].wait_event(WAIT, |e| matches!(e, MemberEvent::GroupKeyChanged { .. }))?;
    println!(
        "\n  rekeyed: bob's epoch {:?} -> {:?}",
        before,
        members[1].group_epoch()
    );

    // 6. Bob leaves; the policy rekeys so bob's old key is useless.
    let bob = members.remove(1);
    bob.leave()?;
    members[0].wait_event(WAIT, |e| matches!(e, MemberEvent::MemberLeft(_)))?;
    println!(
        "  bob left: alice now sees roster={:?} epoch={:?}",
        members[0]
            .roster()
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>(),
        members[0].group_epoch()
    );

    service.shutdown();
    println!("\nquickstart complete");
    Ok(())
}
