//! The `Roster` contract, end to end: **one snapshot, shared, validated
//! once**.
//!
//! *Sharing.* The `O(1)`-recipients claim is checked by pointer identity,
//! not by a clock, so it holds on any host: every `roster()` accessor, the
//! `recipients` of every data-plane and control-plane fan-out, and the
//! member's view after its `Welcome` are the *same* buffer as the state
//! they were taken from.
//!
//! *Rejection.* A `Welcome` whose roster breaks any rule — order,
//! uniqueness, a name `ActorId::new` would refuse, the size bound, a
//! count or a name the bytes do not hold — is `Malformed` even when it
//! arrives under the right session key with the right nonces, and leaves
//! the session exactly where it was. Roster validation runs only after
//! the AEAD tag verified: the same bytes under a wrong key are `BadSeal`.

use enclaves_bench::{cheap_member_key, leader_id, member_id, FanoutGroup};
use enclaves_core::config::{LeaderConfig, RekeyPolicy};
use enclaves_core::directory::Directory;
use enclaves_core::journal::{genesis_for, label_for, JournalDir, ReadMode};
use enclaves_core::protocol::{
    BroadcastFrame, LeaderCore, LeaderOutput, MemberEvent, MemberSession, SessionPhase,
};
use enclaves_core::{CoreError, RejectReason};
use enclaves_crypto::nonce::{AeadNonce, ProtocolNonce};
use enclaves_crypto::rng::SeededRng;
use enclaves_wire::actor::MAX_ACTOR_ID_LEN;
use enclaves_wire::codec::{encode, Encode, Writer};
use enclaves_wire::message::{
    open, seal, AdminPayload, AdminPlain, AuthInitPlain, Envelope, KeyDistPlain, MsgType,
    NonceAckPlain,
};
use enclaves_wire::{ActorId, Roster, MAX_ROSTER_LEN};
use std::time::Duration;

// ---------------------------------------------------------------------------
// Sharing
// ---------------------------------------------------------------------------

/// Drives `member_id(i)`'s handshake against `leader` by hand and returns
/// the session, the leader output of the step that admitted it, and the
/// `Welcomed` roster the member surfaced.
fn join(leader: &mut LeaderCore, i: usize) -> (MemberSession, LeaderOutput, Roster) {
    let (mut session, init) = MemberSession::start_with_key_in_group(
        member_id(i),
        leader_id(),
        cheap_member_key(i),
        Box::new(SeededRng::from_seed(9000 + i as u64)),
        None,
    );
    let key_dist = leader
        .handle_at(&init, Duration::ZERO)
        .expect("auth init accepted");
    let ack = session
        .handle(&key_dist.outgoing[0])
        .expect("key dist accepted")
        .reply
        .expect("key ack");
    let admitted = leader
        .handle_at(&ack, Duration::ZERO)
        .expect("key ack accepted");
    let mut welcomed = None;
    let mut queue: Vec<Envelope> = admitted
        .outgoing
        .iter()
        .filter(|e| e.recipient == member_id(i))
        .cloned()
        .collect();
    while let Some(env) = queue.pop() {
        let out = session.handle(&env).expect("admin frame accepted");
        for event in out.events {
            if let MemberEvent::Welcomed { roster, .. } = event {
                welcomed = Some(roster);
            }
        }
        if let Some(reply) = out.reply {
            queue.extend(
                leader
                    .handle_at(&reply, Duration::ZERO)
                    .expect("ack accepted")
                    .outgoing,
            );
        }
    }
    (
        session,
        admitted,
        welcomed.expect("the joiner was welcomed"),
    )
}

fn path_update(out: &LeaderOutput) -> &BroadcastFrame {
    match &out.broadcasts[..] {
        [frame] => frame,
        other => panic!("expected one PathUpdate, got {}", other.len()),
    }
}

#[test]
fn every_accessor_and_fanout_shares_the_leaders_snapshot() {
    let mut world = FanoutGroup::new_tree(8);
    let leader = &mut world.leader;

    assert!(leader.roster().ptr_eq(&leader.roster()));
    assert_eq!(leader.roster().len(), 8);

    // Data plane: the recipients *are* the roster.
    let frame = leader.broadcast_group_data(b"payload").unwrap();
    assert!(frame.recipients.ptr_eq(&leader.roster()));

    // Rekey: the PathUpdate goes to the current snapshot.
    let out = leader.rekey_now().unwrap();
    assert!(path_update(&out).recipients.ptr_eq(&leader.roster()));

    // Expel: the PathUpdate goes to the post-departure snapshot.
    let out = leader.expel(&member_id(3)).unwrap();
    assert!(path_update(&out).recipients.ptr_eq(&leader.roster()));
    assert_eq!(leader.roster().len(), 7);
    assert!(!leader.roster().contains(&member_id(3)));
}

#[test]
fn a_joins_path_update_goes_to_the_snapshot_taken_before_it() {
    let mut world = FanoutGroup::new_tree(8);
    world.leader.expel(&member_id(5)).unwrap();
    let before = world.leader.roster();

    let (session, admitted, welcomed) = join(&mut world.leader, 5);

    // Everyone but the joiner, without a filter pass: the very snapshot
    // that was current when the join arrived.
    let update = path_update(&admitted);
    assert!(update.recipients.ptr_eq(&before));
    assert_eq!(update.recipients.len(), 7);
    assert!(!update.recipients.contains(&member_id(5)));

    // The member keeps the snapshot it decoded and shows the same one.
    assert!(welcomed.ptr_eq(&session.roster()));
    assert_eq!(welcomed, world.leader.roster());
    assert_eq!(welcomed.len(), 8);
    assert_eq!(session.group_epoch(), world.leader.epoch());
}

/// A re-admission after recovery: the journaled roster already lists the
/// joiner, so "everyone but the joiner" is no longer the pre-join
/// snapshot itself — but it is still exactly that set.
#[test]
fn a_readmissions_path_update_still_excludes_the_joiner() {
    let root =
        std::env::temp_dir().join(format!("enclaves-roster-contract-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();

    let mut directory = Directory::new();
    for i in 0..4 {
        directory.register_key(&member_id(i), cheap_member_key(i));
    }
    let config = LeaderConfig {
        rekey_policy: RekeyPolicy::Manual,
        membership_notices: false,
        tree_rekey: true,
        ..LeaderConfig::default()
    };
    let journal = JournalDir::open_or_init(&root).unwrap();
    let label = label_for(None);
    let writer = journal
        .create_stream(&label, &genesis_for(&leader_id(), &directory, &config))
        .unwrap();
    let mut live = LeaderCore::with_rng(
        leader_id(),
        directory,
        config,
        Box::new(SeededRng::from_seed(7)),
    );
    live.attach_journal(writer);
    for i in 0..4 {
        join(&mut live, i);
    }
    let digest = live.durable_digest();
    drop(live);

    let replay = journal.replay_stream(&label, ReadMode::Strict).unwrap();
    let mut recovered = LeaderCore::recover(&replay).unwrap();
    assert_eq!(recovered.durable_digest(), digest);
    assert_eq!(recovered.roster().len(), 4);

    let (session, admitted, welcomed) = join(&mut recovered, 2);
    let update = path_update(&admitted);
    assert_eq!(update.recipients, recovered.roster().without(&member_id(2)));
    assert_eq!(update.recipients.len(), 3);
    assert!(welcomed.ptr_eq(&session.roster()));
    assert_eq!(welcomed, recovered.roster());
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn notices_replace_the_members_snapshot_and_keep_it_sorted() {
    let mut world = enclaves_bench::ImprovedGroup::new(3, RekeyPolicy::Manual);
    for m in &world.members {
        assert_eq!(m.roster(), world.leader.roster());
    }
    let out = world.leader.expel(&member_id(1)).unwrap();
    world.settle(out.outgoing);
    let expect: Roster = [member_id(0), member_id(2)].into_iter().collect();
    assert_eq!(world.leader.roster(), expect);
    assert_eq!(world.members[0].roster(), expect);
    assert_eq!(world.members[2].roster(), expect);
}

// ---------------------------------------------------------------------------
// Rejection
// ---------------------------------------------------------------------------

/// Pre-encoded bytes standing in for a plaintext structure, so the test
/// can seal a `Welcome` no honest encoder would produce.
struct Raw(Vec<u8>);

impl Encode for Raw {
    fn encode(&self, w: &mut Writer) {
        w.put_array(&self.0);
    }
}

/// A member mid-join whose leader is the test itself: it holds the
/// session key and the member's latest nonce, so it can seal any bytes
/// as a perfectly authentic `AdminMsg`.
struct Puppeteer {
    session: MemberSession,
    user: ActorId,
    session_key: [u8; 32],
    user_nonce: ProtocolNonce,
}

impl Puppeteer {
    fn new() -> Self {
        let user = member_id(0);
        let long_term = cheap_member_key(0);
        let (mut session, init) = MemberSession::start_with_key_in_group(
            user.clone(),
            leader_id(),
            cheap_member_key(0),
            Box::new(SeededRng::from_seed(1)),
            None,
        );
        let init_plain: AuthInitPlain =
            open(long_term.as_bytes(), &init.header_aad(), &init.body).unwrap();
        let session_key = [0x6Bu8; 32];
        let leader_nonce = ProtocolNonce::from_bytes([1; 16]);
        let mut key_dist = Envelope {
            msg_type: MsgType::AuthKeyDist,
            sender: leader_id(),
            recipient: user.clone(),
            group: None,
            body: Vec::new(),
        };
        key_dist.body = seal(
            long_term.as_bytes(),
            AeadNonce::from_bytes([2; 12]),
            &key_dist.header_aad(),
            &KeyDistPlain {
                leader: leader_id(),
                user: user.clone(),
                user_nonce: init_plain.nonce,
                leader_nonce,
                session_key,
            },
        );
        let ack = session.handle(&key_dist).unwrap().reply.unwrap();
        let ack_plain: NonceAckPlain = open(&session_key, &ack.header_aad(), &ack.body).unwrap();
        assert_eq!(ack_plain.acked_nonce, leader_nonce);
        Puppeteer {
            session,
            user,
            session_key,
            user_nonce: ack_plain.next_nonce,
        }
    }

    /// An `AdminMsg` carrying `payload` (already encoded), sealed under
    /// `key` with every identity and nonce the member expects.
    fn admin(&self, key: &[u8; 32], payload: &[u8]) -> Envelope {
        let mut plain = encode(&AdminPlain {
            leader: leader_id(),
            user: self.user.clone(),
            user_nonce: self.user_nonce,
            leader_nonce: ProtocolNonce::from_bytes([3; 16]),
            payload: AdminPayload::AppData([][..].into()),
        });
        // Swap the placeholder payload (tag + empty byte string) for ours.
        plain.truncate(plain.len() - 5);
        plain.extend_from_slice(payload);
        let mut env = Envelope {
            msg_type: MsgType::AdminMsg,
            sender: leader_id(),
            recipient: self.user.clone(),
            group: None,
            body: Vec::new(),
        };
        env.body = seal(
            key,
            AeadNonce::from_bytes([4; 12]),
            &env.header_aad(),
            &Raw(plain),
        );
        env
    }
}

/// A `Welcome` payload around an arbitrary roster field.
fn welcome_bytes(roster_field: &[u8]) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u8(4);
    w.put_array(roster_field);
    w.put_u64(1);
    w.put_array(&[7; 32]);
    w.put_array(&[8; 12]);
    w.finish()
}

fn roster_field(count: u32, names: &[&[u8]]) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u32(count);
    for n in names {
        w.put_bytes(n);
    }
    w.finish()
}

#[test]
fn malformed_rosters_are_rejected_after_the_seal_with_no_state_change() {
    let long = vec![b'x'; MAX_ACTOR_ID_LEN + 1];
    let mut truncated = roster_field(2, &[b"m0", b"m1"]);
    truncated.truncate(truncated.len() - 1);
    let cases: Vec<(&str, Vec<u8>)> = vec![
        ("unsorted", roster_field(2, &[b"m1", b"m0"])),
        ("duplicate", roster_field(2, &[b"m0", b"m0"])),
        ("empty name", roster_field(2, &[b"", b"m0"])),
        ("control character", roster_field(2, &[b"m0", b"m\x071"])),
        ("name too long", roster_field(2, &[b"m0", &long])),
        (
            "count past MAX_ROSTER_LEN",
            roster_field(MAX_ROSTER_LEN as u32 + 1, &[b"m0"]),
        ),
        (
            "count larger than the bytes present",
            roster_field(9, &[b"m0", b"m1"]),
        ),
        // The epoch that follows lends the name its missing byte; one
        // check or another still refuses what that makes of it.
        ("truncated name", truncated),
    ];

    let mut p = Puppeteer::new();
    for (what, field) in &cases {
        let forged = p.admin(&p.session_key, &welcome_bytes(field));
        assert_eq!(
            p.session.handle(&forged).unwrap_err(),
            CoreError::Rejected(RejectReason::Malformed),
            "{what}"
        );
        assert!(p.session.roster().is_empty(), "{what}: roster moved");
        assert_eq!(p.session.group_epoch(), None, "{what}: epoch moved");
        assert!(
            p.session.handshake_pending().is_some(),
            "{what}: handshake state moved"
        );

        // Validation sits behind the tag: under the wrong key the same
        // bytes never reach the decoder.
        let unauthentic = p.admin(&[0x11; 32], &welcome_bytes(field));
        assert_eq!(
            p.session.handle(&unauthentic).unwrap_err(),
            CoreError::Rejected(RejectReason::BadSeal),
            "{what}"
        );
    }
    let snap = p.session.obs_registry().snapshot();
    assert_eq!(snap.counter("member.rejected"), 2 * cases.len() as u64);
    assert_eq!(snap.counter("member.admin_accepted"), 0);

    // The nonce the rejected frames echoed was never consumed: an honest
    // Welcome built on it is accepted, and installs the snapshot.
    let honest = welcome_bytes(&roster_field(2, &[b"m0", b"m1"]));
    let welcome = p.admin(&p.session_key, &honest);
    let out = p.session.handle(&welcome).unwrap();
    assert_eq!(p.session.phase(), SessionPhase::Connected);
    let expect: Roster = [member_id(0), member_id(1)].into_iter().collect();
    assert!(matches!(
        &out.events[..],
        [MemberEvent::Welcomed { roster, epoch: 1 }] if *roster == expect
    ));
    assert!(matches!(
        &out.events[..],
        [MemberEvent::Welcomed { roster, .. }] if roster.ptr_eq(&p.session.roster())
    ));
}
