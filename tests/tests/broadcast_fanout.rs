//! Single-seal data-plane broadcast over the simulated network: one leader,
//! 512 members, one `broadcast_data` call. Every member must receive the
//! identical plaintext, and the leader must have sealed exactly once.
//!
//! Cross-epoch replay, reordering, and rekey-race acceptance are covered at
//! the protocol level in `enclaves_core::protocol::leader` tests; this test
//! exercises the threaded runtimes and the refcounted fan-out path.

use enclaves_bench::{cheap_member_key, member_id};
use enclaves_core::config::{LeaderConfig, RekeyPolicy};
use enclaves_core::directory::Directory;
use enclaves_core::protocol::{MemberEvent, MemberSession};
use enclaves_core::runtime::{LeaderService, MemberOptions, MemberRuntime, ServiceConfig};
use enclaves_crypto::rng::SeededRng;
use enclaves_net::sim::{SimConfig, SimNet};
use enclaves_wire::ActorId;
use std::time::Duration;

const WAIT: Duration = Duration::from_secs(30);
const N: usize = 512;

#[test]
fn broadcast_reaches_512_members_with_one_seal() {
    let net = SimNet::new(SimConfig::default());
    let listener = net.listen("leader").unwrap();
    let leader_id = ActorId::new("leader").unwrap();

    let mut directory = Directory::new();
    for i in 0..N {
        directory.register_key(&member_id(i), cheap_member_key(i));
    }
    let service = LeaderService::spawn(Box::new(listener), ServiceConfig::default());
    let leader = service
        .add_group(
            leader_id.clone(),
            directory,
            LeaderConfig {
                // Manual policy + suppressed join/leave notices: joining 512
                // members must not trigger 512 rekeys or an O(N²) notice
                // storm.
                rekey_policy: RekeyPolicy::Manual,
                max_members: N,
                membership_notices: false,
                ..LeaderConfig::default()
            },
        )
        .unwrap();

    let members: Vec<MemberRuntime> = (0..N)
        .map(|i| {
            let (session, init) = MemberSession::start_with_key_in_group(
                member_id(i),
                leader_id.clone(),
                cheap_member_key(i),
                Box::new(SeededRng::from_seed(9000 + i as u64)),
                None,
            );
            let member = MemberRuntime::run(
                net.dialer("leader"),
                session,
                init,
                MemberOptions::default(),
            )
            .unwrap();
            member.wait_joined(WAIT).unwrap();
            member
        })
        .collect();
    assert_eq!(leader.roster().len(), N);

    let registry = leader.obs_registry();
    let seals_before = registry.snapshot().counter("leader.data_seals");
    let payload = b"state sync: epoch snapshot #7";
    leader.broadcast_data(payload).unwrap();

    for member in &members {
        let event = member
            .wait_event(WAIT, |e| matches!(e, MemberEvent::Broadcast { .. }))
            .unwrap();
        let MemberEvent::Broadcast { data, seq, .. } = event else {
            unreachable!("filtered by wait_event");
        };
        assert_eq!(data, payload, "identical plaintext at every member");
        assert_eq!(seq, 0, "first broadcast of the epoch");
    }

    // The whole fan-out cost exactly one AEAD seal on the leader.
    let snap = registry.snapshot();
    assert_eq!(snap.counter("leader.data_seals") - seals_before, 1);
    assert_eq!(snap.counter("leader.broadcasts"), 1);

    drop(members);
    service.shutdown();
}
