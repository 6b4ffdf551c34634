//! Fuzz-style property tests: no mutation of any valid protocol frame is
//! ever accepted with effect, and no amount of garbage changes session
//! state.
//!
//! These lean on the intrusion-tolerance contract (rejection never
//! mutates state), which lets one shared world absorb every generated
//! case.

use enclaves_bench::{cheap_member_key, leader_id, member_id, pump, FanoutGroup, ImprovedGroup};
use enclaves_core::config::{LeaderConfig, RekeyPolicy};
use enclaves_core::directory::Directory;
use enclaves_core::liveness::LivenessConfig;
use enclaves_core::protocol::{LeaderCore, MemberEvent, MemberSession};
use enclaves_crypto::rng::SeededRng;
use enclaves_wire::codec::{decode, encode, Decode, Reader};
use enclaves_wire::message::{
    Envelope, MsgType, PathUpdateWire, MAX_COMMIT_LEAVES, MAX_PATH_CIPHERS,
};
use enclaves_wire::{ActorId, Roster};
use proptest::prelude::*;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

/// A joined 2-member world plus a captured valid AdminMsg, `GroupData`
/// uplink and relayed `GroupBroadcast` frame (as encoded bytes), none of
/// them delivered.
struct Fixture {
    world: ImprovedGroup,
    valid_admin: Vec<u8>,
    valid_group_data: Vec<u8>,
    valid_relay: Vec<u8>,
}

fn fixture() -> &'static Mutex<Fixture> {
    static FIXTURE: OnceLock<Mutex<Fixture>> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let mut world = ImprovedGroup::new(2, RekeyPolicy::Manual);
        // One broadcast captured mid-flight (not delivered): a valid,
        // unconsumed AdminMsg for member 0.
        let out = world.leader.broadcast_admin_data(b"captured").unwrap();
        let valid_admin = encode(
            out.outgoing
                .iter()
                .find(|e| e.recipient == member_id(0))
                .unwrap(),
        );
        // Settle the rest so the world stays consistent.
        world.settle(out.outgoing);
        let valid_group_data = encode(&world.members[1].send_group_data(b"gd").unwrap());
        // Member 0's data as the leader relays it to member 1.
        let uplink = world.members[0].send_group_data(b"relayed").unwrap();
        let relay = world.leader.handle_at(&uplink, Duration::ZERO).unwrap();
        let valid_relay = relay.broadcasts[0].frame.to_vec();
        Mutex::new(Fixture {
            world,
            valid_admin,
            valid_group_data,
            valid_relay,
        })
    })
}

fn snapshot(fx: &Fixture) -> (Roster, Option<u64>, Option<u64>) {
    (
        fx.world.leader.roster(),
        fx.world.leader.epoch(),
        fx.world.members[0].group_epoch(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any bit flip anywhere in a valid AdminMsg frame makes it inert:
    /// the frame either fails to decode or is rejected; no event fires and
    /// no state changes.
    #[test]
    fn bitflipped_admin_frames_are_inert(byte_idx in 0usize..4096, bit in 0u8..8) {
        let mut fx = fixture().lock().unwrap();
        let before = snapshot(&fx);
        let mut frame = fx.valid_admin.clone();
        let idx = byte_idx % frame.len();
        frame[idx] ^= 1 << bit;

        if let Ok(env) = decode::<Envelope>(&frame) {
            // The envelope parsed; the member must reject it or, at most,
            // answer idempotently with zero events.
            match fx.world.members[0].handle(&env) {
                Ok(out) => prop_assert!(out.events.is_empty(), "mutated frame delivered!"),
                Err(e) => prop_assert!(e.is_rejection(), "unexpected error class: {e}"),
            }
        }
        prop_assert_eq!(snapshot(&fx), before);
    }

    /// Same for member group data: a mutated uplink is never relayed by
    /// the leader, and a mutated relay is never delivered by a member.
    #[test]
    fn bitflipped_group_data_is_inert(
        byte_idx in 0usize..4096,
        bit in 0u8..8,
        relayed in any::<bool>(),
    ) {
        let mut fx = fixture().lock().unwrap();
        let before = snapshot(&fx);
        let mut frame = if relayed {
            fx.valid_relay.clone()
        } else {
            fx.valid_group_data.clone()
        };
        let idx = byte_idx % frame.len();
        frame[idx] ^= 1 << bit;

        if let Ok(env) = decode::<Envelope>(&frame) {
            let effects = if relayed {
                fx.world.members[1].handle(&env).map(|out| out.events.len())
            } else {
                fx.world
                    .leader
                    .handle_at(&env, Duration::ZERO)
                    .map(|out| out.events.len() + out.broadcasts.len() + out.outgoing.len())
            };
            match effects {
                Ok(n) => prop_assert_eq!(n, 0, "mutated group data took effect"),
                Err(e) => prop_assert!(e.is_rejection(), "unexpected error class: {e}"),
            }
        }
        prop_assert_eq!(snapshot(&fx), before);
    }

    /// Arbitrary synthetic envelopes (valid headers, attacker-chosen
    /// bodies) never pass authentication anywhere.
    #[test]
    fn synthetic_envelopes_rejected(
        msg_type in 1u8..=7,
        to_leader in any::<bool>(),
        body in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let mut fx = fixture().lock().unwrap();
        let before = snapshot(&fx);
        let env = Envelope {
            msg_type: MsgType::from_u8(msg_type).unwrap(),
            sender: if to_leader { member_id(0) } else { ActorId::new("leader").unwrap() },
            recipient: if to_leader { ActorId::new("leader").unwrap() } else { member_id(0) },
            group: None,
            body,
        };
        if to_leader {
            let result = fx.world.leader.handle_at(&env, Duration::ZERO);
            prop_assert!(result.is_err(), "forged envelope accepted by leader");
        } else {
            let result = fx.world.members[0].handle(&env);
            prop_assert!(result.is_err(), "forged envelope accepted by member");
        }
        prop_assert_eq!(snapshot(&fx), before);
    }

    /// Arbitrary raw bytes never even reach the protocol layer intact.
    #[test]
    fn garbage_frames_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let mut fx = fixture().lock().unwrap();
        let before = snapshot(&fx);
        if let Ok(env) = decode::<Envelope>(&bytes) {
            let _ = fx.world.leader.handle_at(&env, Duration::ZERO);
            let _ = fx.world.members[0].handle(&env);
            // Whatever happened, rejection paths must not mutate state —
            // garbage cannot authenticate.
        }
        prop_assert_eq!(snapshot(&fx), before);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// Arbitrary bytes fed to `Roster::decode` never panic, and what a
    /// successful decode keeps is bounded by the input: the buffer is a
    /// prefix of it and the index has one `u32` per five input bytes at
    /// most. The count is attacker-chosen from the whole `u32` range and
    /// from just around what the body could hold, so a claim the bytes
    /// cannot back is refused before anything is sized from it.
    #[test]
    fn roster_decode_is_total_and_bounded_by_its_input(
        count in prop_oneof![0u32..64, any::<u32>()],
        names in proptest::collection::vec("[a-c]{0,3}", 0..32),
        noise in proptest::collection::vec(any::<u8>(), 0..64),
        cut in 0usize..512,
    ) {
        let mut input = count.to_be_bytes().to_vec();
        for name in &names {
            input.extend_from_slice(&(name.len() as u32).to_be_bytes());
            input.extend_from_slice(name.as_bytes());
        }
        input.extend_from_slice(&noise);
        input.truncate(cut.min(input.len()));
        for bytes in [&input[..], &noise[..]] {
            let mut reader = Reader::new(bytes);
            if let Ok(roster) = Roster::decode(&mut reader) {
                let kept = encode(&roster);
                prop_assert_eq!(&kept[..], &bytes[..kept.len()]);
                prop_assert_eq!(reader.remaining(), bytes.len() - kept.len());
                prop_assert!(roster.len() * 5 <= bytes.len());
                prop_assert!(roster.iter().zip(roster.iter().skip(1)).all(|(a, b)| a < b));
            }
        }
    }
}

/// Truncations of a valid frame are all inert.
#[test]
fn truncated_frames_are_inert() {
    let mut fx = fixture().lock().unwrap();
    let before = snapshot(&fx);
    let frame = fx.valid_admin.clone();
    for len in 0..frame.len() {
        if let Ok(env) = decode::<Envelope>(&frame[..len]) {
            match fx.world.members[0].handle(&env) {
                Ok(out) => assert!(out.events.is_empty()),
                Err(e) => assert!(e.is_rejection()),
            }
        }
    }
    assert_eq!(snapshot(&fx), before);
}

/// Every single-bit flip of a `GroupData` uplink, then of its relay, on a
/// fresh world: no flipped uplink is relayed or refreshes its sender's
/// liveness anchor, no flipped relay is delivered, and afterwards the
/// pristine frames still go through — so no flip moved the leader's
/// uplink sequence or the receiver's broadcast watermark.
#[test]
fn every_bit_flip_of_group_data_leaves_sequence_and_watermark_alone() {
    let mut directory = Directory::new();
    for i in 0..2 {
        directory.register_key(&member_id(i), cheap_member_key(i));
    }
    let config = LeaderConfig {
        rekey_policy: RekeyPolicy::Manual,
        liveness: LivenessConfig {
            liveness_timeout: Some(Duration::from_secs(10)),
            ..LivenessConfig::default()
        },
        ..LeaderConfig::default()
    };
    let mut leader = LeaderCore::with_rng(
        leader_id(),
        directory,
        config,
        Box::new(SeededRng::from_seed(5)),
    );
    let mut members = Vec::new();
    for i in 0..2 {
        let (session, init) = MemberSession::start_with_key_in_group(
            member_id(i),
            leader_id(),
            cheap_member_key(i),
            Box::new(SeededRng::from_seed(50 + i as u64)),
            None,
        );
        members.push(session);
        pump(&mut leader, &mut members, init);
    }
    let flips = |frame: &[u8]| -> Vec<Envelope> {
        (0..frame.len() * 8)
            .filter_map(|i| {
                let mut flipped = frame.to_vec();
                flipped[i / 8] ^= 1 << (i % 8);
                decode::<Envelope>(&flipped).ok()
            })
            .collect()
    };

    // Member 0 joined at t = 0 and is silent since. Flipped uplinks arrive
    // at t = 5 s: had one refreshed its anchor, the tick at 12 s would not
    // name it.
    let uplink = members[0].send_group_data(b"flip me").unwrap();
    for env in flips(&encode(&uplink)) {
        match leader.handle_at(&env, Duration::from_secs(5)) {
            Ok(out) => assert!(
                out.events.is_empty() && out.broadcasts.is_empty() && out.outgoing.is_empty(),
                "a flipped uplink took effect"
            ),
            Err(e) => assert!(e.is_rejection(), "unexpected error class: {e}"),
        }
    }
    let now = Duration::from_secs(12);
    assert!(leader.tick(now).evict.contains(&member_id(0)));
    let out = leader
        .handle_at(&uplink, now)
        .expect("the pristine uplink relays");
    let relay = out.broadcasts[0].frame.to_vec();

    for env in flips(&relay) {
        match members[1].handle(&env) {
            Ok(out) => assert!(out.events.is_empty(), "a flipped relay was delivered"),
            Err(e) => assert!(e.is_rejection(), "unexpected error class: {e}"),
        }
    }
    let out = members[1]
        .handle(&decode(&relay).unwrap())
        .expect("the pristine relay delivers");
    assert!(matches!(
        &out.events[..],
        [MemberEvent::Broadcast { from, data, .. }] if *from == member_id(0) && data == b"flip me"
    ));
}

/// Header-swap: re-addressing or re-labeling the valid frame must break
/// the AEAD binding.
#[test]
fn relabeled_and_readdressed_frames_rejected() {
    let mut fx = fixture().lock().unwrap();
    let env: Envelope = decode(&fx.valid_admin).unwrap();

    // Re-label to every other message type.
    for t in 1u8..=7 {
        let mt = MsgType::from_u8(t).unwrap();
        if mt == env.msg_type {
            continue;
        }
        let relabeled = Envelope {
            msg_type: mt,
            ..env.clone()
        };
        let r0 = fx.world.members[0].handle(&relabeled);
        assert!(r0.is_err(), "relabeled frame accepted as {mt:?}");
        let r1 = fx.world.leader.handle_at(&relabeled, Duration::ZERO);
        assert!(r1.is_err(), "leader accepted relabeled {mt:?}");
    }

    // Re-address to the other member.
    let readdressed = Envelope {
        recipient: member_id(1),
        ..env
    };
    assert!(fx.world.members[1].handle(&readdressed).is_err());
}

/// Either a value near the 3-leaf fixture tree or anything at all.
fn tree_u32() -> impl Strategy<Value = u32> {
    prop_oneof![0u32..8, any::<u32>()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    // Not a `#[test]`: `forged_path_updates_are_inert_and_bounded` runs it
    // on a watched thread, because the failure it guards against is a hang.
    //
    // A tree-mode member at leaf 2 of a 3-leaf tree is fed `PathUpdate`
    // frames whose cleartext shape — epoch, leaf count, updated leaf,
    // addressed nodes — is attacker-chosen and whose seals are garbage.
    // None may be accepted, and after each the member still holds the
    // current epoch and key (a fresh leader broadcast opens).
    fn forged_path_update_cases(
        epoch_delta in 0u64..3,
        leaf_count in tree_u32(),
        updated_leaf in tree_u32(),
        nodes in proptest::collection::vec(tree_u32(), 0..6),
    ) {
        let mut world = FanoutGroup::new_tree(3);
        let epoch = world.leader.epoch().unwrap();
        prop_assert_eq!(world.members[2].group_epoch(), Some(epoch));
        let forged = Envelope {
            msg_type: MsgType::PathUpdate,
            sender: leader_id(),
            recipient: leader_id(),
            group: None,
            body: encode(&PathUpdateWire {
                epoch: epoch + epoch_delta,
                leaf_count,
                leaves: vec![updated_leaf],
                nonce: [7; 12],
                ciphers: nodes.into_iter().map(|node| (node, vec![0x55; 48])).collect(),
            }),
        };
        match world.members[2].handle(&forged) {
            Ok(out) => prop_assert!(out.events.is_empty(), "forged path update took effect"),
            Err(e) => prop_assert!(e.is_rejection(), "unexpected error class: {e}"),
        }
        prop_assert_eq!(world.members[2].group_epoch(), Some(epoch));
        let probe: Envelope =
            decode(&world.leader.broadcast_group_data(b"probe").unwrap().frame).unwrap();
        let out = world.members[2].handle(&probe).expect("current key still opens");
        prop_assert!(matches!(&out.events[..], [MemberEvent::Broadcast { data, .. }] if data == b"probe"));

        // The honest flow still converges afterwards.
        let update: Envelope = decode(&world.rekey_tree().frame).unwrap();
        world.members[2].handle(&update).expect("honest path update accepted");
        prop_assert_eq!(world.members[2].group_epoch(), world.leader.epoch());
    }
}

/// Forged tree shapes never hang, never panic and never move state.
#[test]
fn forged_path_updates_are_inert_and_bounded() {
    let (done, finished) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        forged_path_update_cases();
        let _ = done.send(());
    });
    match finished.recv_timeout(Duration::from_secs(120)) {
        Err(RecvTimeoutError::Timeout) => panic!("a forged PathUpdate hung the member"),
        // Finished, or panicked and dropped the sender: surface either.
        _ => worker
            .join()
            .unwrap_or_else(|e| std::panic::resume_unwind(e)),
    }
}

/// Hostile byte-level edits of an honest `PathUpdate` body — a nonce base
/// cut short, a cipher cut short, a cipher count past the cap, bytes after
/// the last cipher — are each rejected, move no state, and leave the
/// honest frame they were cut from as the next one the member takes.
#[test]
fn hostile_path_update_bytes_are_rejected_without_effect() {
    let mut world = FanoutGroup::new_tree(3);
    // The build routes no `PathUpdate` back, so each member holds the
    // epoch it was welcomed at.
    let epochs: Vec<_> = world
        .members
        .iter()
        .map(MemberSession::group_epoch)
        .collect();
    let honest: Envelope = decode(&world.rekey_tree().frame).unwrap();
    let body = &honest.body;
    // Head (20 bytes), nonce base (12), then 52 bytes per cipher.
    let ciphers = (body.len() - 32) / 52;
    assert!(ciphers > 0 && body.len() == 32 + 52 * ciphers);
    let with_count = |count: u32| {
        let mut b = body.clone();
        b[16..20].copy_from_slice(&count.to_be_bytes());
        b
    };
    let mut cases: Vec<(String, Vec<u8>)> = (20..32)
        .map(|cut| {
            (
                format!("nonce base cut to {} bytes", cut - 20),
                body[..cut].to_vec(),
            )
        })
        .collect();
    for short in [1, 16, 47, 51] {
        cases.push((
            format!("last cipher {short} bytes short"),
            body[..body.len() - short].to_vec(),
        ));
    }
    for count in [MAX_PATH_CIPHERS as u32 + 1, u32::MAX] {
        cases.push((format!("count {count}"), with_count(count)));
    }
    cases.push((
        "one cipher more claimed than sent".into(),
        with_count(ciphers as u32 + 1),
    ));
    for extra in [1, 52] {
        let mut b = body.clone();
        b.extend(std::iter::repeat_n(0, extra));
        cases.push((format!("{extra} trailing bytes"), b));
    }
    for (name, body) in cases {
        let forged = Envelope {
            body,
            ..honest.clone()
        };
        for (m, epoch) in world.members.iter_mut().zip(&epochs) {
            match m.handle(&forged) {
                Ok(out) => panic!("{name}: accepted with {:?}", out.events),
                Err(e) => assert!(e.is_rejection(), "{name}: unexpected error class: {e}"),
            }
            assert_eq!(m.group_epoch(), *epoch, "{name}: state moved");
        }
    }
    world.members[2]
        .handle(&honest)
        .expect("the honest update still lands");
    assert_eq!(world.members[2].group_epoch(), world.leader.epoch());
}

/// Hands one leader output to the sessions — admin envelopes to their
/// recipient, multicast frames to every target — and queues the replies.
fn route(
    out: enclaves_core::protocol::LeaderOutput,
    members: &mut [MemberSession],
    replies: &mut Vec<Envelope>,
) {
    let index = |name: &str| name.strip_prefix('m')?.parse::<usize>().ok();
    for env in out.outgoing {
        if let Some(m) = index(env.recipient.as_str()).and_then(|i| members.get_mut(i)) {
            replies.extend(m.handle(&env).ok().and_then(|o| o.reply));
        }
    }
    for b in out.broadcasts {
        let env: Envelope = decode(&b.frame).unwrap();
        for t in b.targets() {
            if let Some(m) = index(t).and_then(|i| members.get_mut(i)) {
                replies.extend(m.handle(&env).ok().and_then(|o| o.reply));
            }
        }
    }
}

/// A tree world of three members joined one by one, three more staged
/// and committed together, and that commit's honest `PathUpdate` (leaves
/// 3, 4 and 5 of six) not yet delivered to the three already in.
fn batch_commit_world() -> (LeaderCore, Vec<MemberSession>, Envelope) {
    let mut directory = Directory::new();
    for i in 0..6 {
        directory.register_key(&member_id(i), cheap_member_key(i));
    }
    let config = LeaderConfig {
        rekey_policy: RekeyPolicy::Manual,
        tree_rekey: true,
        ..LeaderConfig::default()
    };
    let mut leader = LeaderCore::with_rng(
        leader_id(),
        directory,
        config,
        Box::new(SeededRng::from_seed(9)),
    );
    let (mut members, inits): (Vec<MemberSession>, Vec<Envelope>) = (0..6)
        .map(|i| {
            MemberSession::start_with_key_in_group(
                member_id(i),
                leader_id(),
                cheap_member_key(i),
                Box::new(SeededRng::from_seed(700 + i as u64)),
                None,
            )
        })
        .unzip();
    for init in inits.iter().take(3) {
        let mut queue = vec![init.clone()];
        while let Some(env) = queue.pop() {
            if let Ok(out) = leader.handle_at(&env, Duration::ZERO) {
                route(out, &mut members, &mut queue);
            }
        }
    }
    // Every handshake first: `handle_at` would commit a staged join.
    let acks: Vec<Envelope> = (3..6)
        .map(|i| {
            let kd = leader
                .handle_at(&inits[i], Duration::ZERO)
                .unwrap()
                .outgoing;
            members[i].handle(&kd[0]).unwrap().reply.unwrap()
        })
        .collect();
    for ack in &acks {
        leader.stage_at(ack, Duration::ZERO).unwrap();
    }
    let mut out = leader.commit().unwrap();
    let honest: Envelope = decode(&out.broadcasts.remove(0).frame).unwrap();
    let mut acks = Vec::new();
    route(out, &mut members, &mut acks);
    for ack in acks {
        leader.handle_at(&ack, Duration::ZERO).unwrap();
    }
    (leader, members, honest)
}

/// Hostile edits of a batch commit's `PathUpdate` — a leaf list longer
/// than the tree, a leaf listed twice or out of order, a listed count
/// past the cap or under two, leaves that disagree with the ciphers, and
/// every cut of the body — are each refused by every member already in,
/// with no epoch moved, and the honest frame they were cut from still
/// lands afterwards.
#[test]
fn hostile_batch_path_updates_are_refused_without_effect() {
    let (leader, mut members, honest) = batch_commit_world();
    let epoch = leader.epoch().unwrap();
    let wire: PathUpdateWire = decode(&honest.body).unwrap();
    assert_eq!(
        (wire.leaves.as_slice(), wire.leaf_count),
        (&[3, 4, 5][..], 6)
    );
    for m in &members[..3] {
        assert_eq!(m.group_epoch(), Some(epoch - 1));
    }
    let with_leaves = |leaves: Vec<u32>| {
        encode(&PathUpdateWire {
            leaves,
            ..wire.clone()
        })
    };
    let mut cases: Vec<(String, Vec<u8>)> = vec![
        (
            "a leaf list longer than the tree".into(),
            with_leaves((0..=6).collect()),
        ),
        (
            "every leaf, the member's own too".into(),
            with_leaves((0..6).collect()),
        ),
        ("a duplicated leaf".into(), with_leaves(vec![3, 3, 5])),
        (
            "a leaf listed twice at the end".into(),
            with_leaves(vec![3, 5, 5]),
        ),
        ("leaves out of order".into(), with_leaves(vec![5, 4, 3])),
        ("a leaf outside the tree".into(), with_leaves(vec![3, 4, 6])),
        ("one leaf dropped".into(), with_leaves(vec![3, 4])),
        ("another leaf named".into(), with_leaves(vec![2, 4, 5])),
        ("the single-leaf form".into(), with_leaves(vec![4])),
    ];
    for k in [0u32, 1, MAX_COMMIT_LEAVES as u32 + 1, u32::MAX] {
        let mut b = honest.body.clone();
        b[16..20].copy_from_slice(&k.to_be_bytes());
        cases.push((format!("a listed count of {k}"), b));
    }
    for cut in 0..honest.body.len() {
        cases.push((format!("cut to {cut} bytes"), honest.body[..cut].to_vec()));
    }
    for (name, body) in cases {
        let forged = Envelope {
            body,
            ..honest.clone()
        };
        for m in &mut members[..3] {
            match m.handle(&forged) {
                Ok(out) => panic!("{name}: accepted with {:?}", out.events),
                Err(e) => assert!(e.is_rejection(), "{name}: unexpected error class: {e}"),
            }
            assert_eq!(m.group_epoch(), Some(epoch - 1), "{name}: state moved");
        }
    }
    for m in &mut members {
        m.handle(&honest).expect("the honest update still lands");
        assert_eq!(m.group_epoch(), Some(epoch));
    }
}
