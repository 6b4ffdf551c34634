//! End-to-end public-key authentication (the paper's footnote-1 variant):
//! X25519 static-static derivation of `P_a`, identical protocol above it.

use enclaves_core::config::LeaderConfig;
use enclaves_core::directory::Directory;
use enclaves_core::protocol::{MemberEvent, MemberSession};
use enclaves_core::runtime::{
    GroupHandle, LeaderService, MemberOptions, MemberRuntime, ServiceConfig,
};
use enclaves_crypto::rng::{OsEntropyRng, SeededRng};
use enclaves_crypto::x25519::{derive_long_term_key, PublicKey, StaticSecret};
use enclaves_net::sim::{SimConfig, SimNet};
use enclaves_wire::{ActorId, Roster};
use std::time::Duration;

const WAIT: Duration = Duration::from_secs(5);

fn id(s: &str) -> ActorId {
    ActorId::new(s).unwrap()
}

struct PkWorld {
    net: SimNet,
    service: LeaderService,
    leader: GroupHandle,
    leader_public: PublicKey,
    secrets: Vec<(String, StaticSecret)>,
}

fn world(users: &[&str], seed: u64) -> PkWorld {
    let mut rng = SeededRng::from_seed(seed);
    let leader_secret = StaticSecret::generate(&mut rng);
    let leader_public = leader_secret.public_key();
    let mut directory = Directory::new();
    let mut secrets = Vec::new();
    for user in users {
        let secret = StaticSecret::generate(&mut rng);
        directory
            .register_public_key(
                &id(user),
                &secret.public_key(),
                &leader_secret,
                &id("leader"),
            )
            .unwrap();
        secrets.push(((*user).to_string(), secret));
    }
    let net = SimNet::new(SimConfig::default());
    let listener = net.listen("leader").unwrap();
    let service = LeaderService::spawn(Box::new(listener), ServiceConfig::default());
    let leader = service
        .add_group(id("leader"), directory, LeaderConfig::default())
        .unwrap();
    PkWorld {
        net,
        service,
        leader,
        leader_public,
        secrets,
    }
}

/// Runs `user`'s member over a fresh link, keyed by the `P_a` derived
/// from its X25519 secret and the leader's public key; the session above
/// that key is the password variant's.
fn run_pk(
    net: &SimNet,
    user: &str,
    secret: &StaticSecret,
    leader_public: &PublicKey,
) -> MemberRuntime {
    let key = derive_long_term_key(secret, leader_public, user, "leader").unwrap();
    let (session, init) = MemberSession::start_with_key_in_group(
        id(user),
        id("leader"),
        key,
        Box::new(OsEntropyRng::new()),
        None,
    );
    MemberRuntime::run(
        net.dialer("leader"),
        session,
        init,
        MemberOptions::default(),
    )
    .unwrap()
}

fn join(world: &PkWorld, user: &str) -> MemberRuntime {
    let secret = &world
        .secrets
        .iter()
        .find(|(name, _)| name == user)
        .unwrap()
        .1;
    let member = run_pk(&world.net, user, secret, &world.leader_public);
    member.wait_joined(WAIT).unwrap();
    member
}

#[test]
fn pk_authenticated_group_works_end_to_end() {
    let world = world(&["alice", "bob"], 7);
    let alice = join(&world, "alice");
    let bob = join(&world, "bob");

    let deadline = std::time::Instant::now() + WAIT;
    while alice.group_epoch() != world.leader.epoch() || bob.group_epoch() != world.leader.epoch() {
        assert!(std::time::Instant::now() < deadline);
        std::thread::sleep(Duration::from_millis(5));
    }

    alice.send_group_data(b"pk hello").unwrap();
    let event = bob
        .wait_event(WAIT, |e| matches!(e, MemberEvent::Broadcast { .. }))
        .unwrap();
    assert!(matches!(event, MemberEvent::Broadcast { data, .. } if data == b"pk hello"));

    bob.leave().unwrap();
    alice
        .wait_event(WAIT, |e| matches!(e, MemberEvent::MemberLeft(_)))
        .unwrap();
    assert_eq!(world.leader.roster(), Roster::from_iter([id("alice")]));
    world.service.shutdown();
}

#[test]
fn wrong_keypair_impostor_rejected() {
    let world = world(&["alice"], 8);
    let mut rng = SeededRng::from_seed(999);
    let mallory = StaticSecret::generate(&mut rng);
    let impostor = run_pk(&world.net, "alice", &mallory, &world.leader_public);
    assert!(impostor.wait_joined(Duration::from_millis(300)).is_err());
    assert!(world.leader.roster().is_empty());
    impostor.abandon();
    world.service.shutdown();
}

#[test]
fn pk_and_password_members_coexist() {
    // A directory can mix registration modes: the protocol only sees the
    // derived long-term keys.
    let mut rng = SeededRng::from_seed(11);
    let leader_secret = StaticSecret::generate(&mut rng);
    let alice_secret = StaticSecret::generate(&mut rng);
    let mut directory = Directory::new();
    directory
        .register_public_key(
            &id("alice"),
            &alice_secret.public_key(),
            &leader_secret,
            &id("leader"),
        )
        .unwrap();
    directory.register_password(&id("bob"), "bob-pw").unwrap();

    let net = SimNet::new(SimConfig::default());
    let listener = net.listen("leader").unwrap();
    let service = LeaderService::spawn(Box::new(listener), ServiceConfig::default());
    let leader = service
        .add_group(id("leader"), directory, LeaderConfig::default())
        .unwrap();

    let alice = run_pk(&net, "alice", &alice_secret, &leader_secret.public_key());
    alice.wait_joined(WAIT).unwrap();

    let bob =
        MemberRuntime::connect(net.dialer("leader"), id("bob"), id("leader"), "bob-pw").unwrap();
    bob.wait_joined(WAIT).unwrap();

    assert_eq!(leader.roster(), Roster::from_iter([id("alice"), id("bob")]));
    service.shutdown();
}
