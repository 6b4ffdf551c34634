//! Public-key authentication — the variant the paper's footnote 1 leaves
//! unimplemented ("Authentication using public-key cryptography is also
//! possible").
//!
//! Instead of a pre-shared password, each participant holds a static
//! X25519 key pair. The long-term key `P_a` is derived on both sides from
//! the static-static Diffie-Hellman shared secret, bound to both
//! identities: the leader's `Directory::register_public_key` and the
//! member's `derive_long_term_key`. The member then starts the same
//! session a password member does, `MemberSession::start_with_key_in_group`
//! under that key, so the protocol above `P_a` is byte-identical to the
//! password variant and every verified property carries over.
//!
//! ```text
//! cargo run -p enclaves-examples --bin pk_auth
//! ```

use enclaves_core::config::LeaderConfig;
use enclaves_core::directory::Directory;
use enclaves_core::protocol::{MemberEvent, MemberSession};
use enclaves_core::runtime::{LeaderService, MemberOptions, MemberRuntime, ServiceConfig};
use enclaves_crypto::rng::OsEntropyRng;
use enclaves_crypto::x25519::{derive_long_term_key, PublicKey, StaticSecret};
use enclaves_net::sim::{SimConfig, SimNet};
use enclaves_wire::ActorId;
use std::time::Duration;

const WAIT: Duration = Duration::from_secs(5);

/// Connects `user` holding `secret`: derives `P_a` against the leader's
/// public key and runs the session that key starts.
fn connect(
    net: &SimNet,
    user: &str,
    secret: &StaticSecret,
    leader_public: &PublicKey,
) -> Result<MemberRuntime, Box<dyn std::error::Error>> {
    let key = derive_long_term_key(secret, leader_public, user, "leader")?;
    let (session, init) = MemberSession::start_with_key_in_group(
        ActorId::new(user)?,
        ActorId::new("leader")?,
        key,
        Box::new(OsEntropyRng::new()),
        None,
    );
    Ok(MemberRuntime::run(
        net.dialer("leader"),
        session,
        init,
        MemberOptions::default(),
    )?)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = OsEntropyRng::new();

    // Key generation: in a deployment these would come from files or an
    // HSM; the leader learns each member's *public* key out of band (the
    // PKI assumption replacing the paper's password assumption).
    let leader_secret = StaticSecret::generate(&mut rng);
    let leader_public = leader_secret.public_key();
    let alice_secret = StaticSecret::generate(&mut rng);
    let bob_secret = StaticSecret::generate(&mut rng);
    println!("leader public key: {:?}", leader_public);
    println!("alice  public key: {:?}", alice_secret.public_key());
    println!("bob    public key: {:?}\n", bob_secret.public_key());

    let leader_id = ActorId::new("leader")?;
    let mut directory = Directory::new();
    directory.register_public_key(
        &ActorId::new("alice")?,
        &alice_secret.public_key(),
        &leader_secret,
        &leader_id,
    )?;
    directory.register_public_key(
        &ActorId::new("bob")?,
        &bob_secret.public_key(),
        &leader_secret,
        &leader_id,
    )?;

    let net = SimNet::new(SimConfig::default());
    let listener = net.listen("leader")?;
    let service = LeaderService::spawn(Box::new(listener), ServiceConfig::default());
    let leader = service.add_group(leader_id, directory, LeaderConfig::default())?;

    // Members join with their key pairs — no password anywhere.
    let mut members = Vec::new();
    for (name, secret) in [("alice", &alice_secret), ("bob", &bob_secret)] {
        let member = connect(&net, name, secret, &leader_public)?;
        member.wait_joined(WAIT)?;
        println!("{name} joined via X25519 static-static authentication");
        members.push(member);
    }

    // Same group semantics as ever.
    let deadline = std::time::Instant::now() + WAIT;
    while members.iter().any(|m| m.group_epoch() != leader.epoch()) {
        if std::time::Instant::now() > deadline {
            return Err("epoch sync timed out".into());
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    members[0].send_group_data(b"hello from pk-auth")?;
    let event = members[1].wait_event(WAIT, |e| matches!(e, MemberEvent::Broadcast { .. }))?;
    if let MemberEvent::Broadcast { from, data, .. } = event {
        println!(
            "bob received {:?} from {from}",
            String::from_utf8_lossy(&data)
        );
    }

    // The real alice leaves...
    let alice = members.remove(0);
    alice.leave()?;
    let deadline = std::time::Instant::now() + WAIT;
    while leader.roster().len() > 1 {
        if std::time::Instant::now() > deadline {
            return Err("leave propagation timed out".into());
        }
        std::thread::sleep(Duration::from_millis(10));
    }

    // ...and an impostor claiming to be alice, with a different key pair,
    // fails authentication (the seal under the derived P_a cannot verify).
    let mallory_secret = StaticSecret::generate(&mut rng);
    // Claims to be alice, but holds the wrong secret.
    let impostor = connect(&net, "alice", &mallory_secret, &leader_public)?;
    match impostor.wait_joined(Duration::from_millis(400)) {
        Err(_) => println!("\nimpostor with a different key pair was rejected, as expected"),
        Ok(()) => return Err("impostor joined?!".into()),
    }
    impostor.abandon();

    for member in members {
        member.leave()?;
    }
    service.shutdown();
    println!("pk_auth complete");
    Ok(())
}
