//! `enclave` — a command-line leader/member for running a secure group
//! across real terminals and machines.
//!
//! ```text
//! # terminal 1: host a group
//! cargo run -p enclaves-examples --bin enclave -- \
//!     leader --listen 127.0.0.1:7777 --user alice:wonder --user bob:builder
//!
//! # terminal 2: join and chat (stdin lines go to the group)
//! cargo run -p enclaves-examples --bin enclave -- \
//!     member --connect 127.0.0.1:7777 --user alice --password wonder
//! ```
//!
//! Leader stdin commands: `rekey`, `expel <user>`, `say <text>` (admin
//! broadcast), `cast <text>` (data plane), `roster`, `stats` (the
//! service's and the socket loop's metric snapshots), `quit`.

use enclaves_core::config::{LeaderConfig, RekeyPolicy};
use enclaves_core::directory::Directory;
use enclaves_core::protocol::{LeaderEvent, MemberEvent};
use enclaves_core::runtime::{LeaderService, MemberRuntime, ServiceConfig};
use enclaves_net::{MuxConfig, MuxNet};
use enclaves_wire::ActorId;
use std::io::BufRead;
use std::time::Duration;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("leader") => run_leader(&args[1..]),
        Some("member") => run_member(&args[1..]),
        _ => {
            eprintln!("usage: enclave leader --listen ADDR --user NAME:PASSWORD [--user ...] [--rekey manual|onjoin|onleave|onjoinleave] [--tree]");
            eprintln!("       enclave member --connect ADDR --user NAME --password PASSWORD");
            std::process::exit(2);
        }
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

/// Extracts `--flag value` occurrences from an argument list.
fn flag_values<'a>(args: &'a [String], flag: &str) -> Vec<&'a str> {
    let mut out = Vec::new();
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        if a == flag {
            if let Some(v) = iter.next() {
                out.push(v.as_str());
            }
        }
    }
    out
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    flag_values(args, flag).into_iter().next()
}

fn run_leader(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let listen = flag_value(args, "--listen").unwrap_or("127.0.0.1:7777");
    let rekey = match flag_value(args, "--rekey").unwrap_or("onjoinleave") {
        "manual" => RekeyPolicy::Manual,
        "onjoin" => RekeyPolicy::OnJoin,
        "onleave" => RekeyPolicy::OnLeave,
        "onjoinleave" => RekeyPolicy::OnJoinAndLeave,
        other => return Err(format!("unknown rekey policy {other}").into()),
    };
    // Tree mode: every rotation is one O(log N) PathUpdate multicast
    // instead of per-member admin seals.
    let tree_rekey = args.iter().any(|a| a == "--tree");
    let mut directory = Directory::new();
    for spec in flag_values(args, "--user") {
        let Some((name, password)) = spec.split_once(':') else {
            return Err(format!("--user expects NAME:PASSWORD, got {spec}").into());
        };
        directory.register_password(&ActorId::new(name)?, password)?;
    }
    if directory.is_empty() {
        return Err("register at least one --user NAME:PASSWORD".into());
    }

    // Every member socket lives on one readiness loop, whose health its
    // registry keeps as `net.loop.*`.
    let net = MuxNet::spawn(MuxConfig::default());
    let endpoint = net.listen_events(listen.parse()?, 1)?;
    println!(
        "leader listening on {} ({} registered users, chacha20 lanes: {}, poly1305 lanes: {})",
        endpoint.local_addr(),
        directory.len(),
        enclaves_crypto::chacha20::lanes(),
        enclaves_crypto::poly1305::lanes()
    );
    let service = LeaderService::spawn_mux(endpoint, ServiceConfig::default());
    let leader = service.add_group(
        ActorId::new("leader")?,
        directory,
        LeaderConfig {
            rekey_policy: rekey,
            tree_rekey,
            ..LeaderConfig::default()
        },
    )?;

    // Event printer thread.
    let events = leader.events().clone();
    std::thread::spawn(move || {
        while let Ok(event) = events.recv() {
            match event {
                LeaderEvent::MemberJoined(m) => println!("<< {m} joined"),
                LeaderEvent::MemberLeft(m) => println!("<< {m} left"),
                LeaderEvent::MemberEvicted(m) => println!("<< {m} evicted (liveness timeout)"),
                LeaderEvent::Rekeyed(e) => println!("<< rekeyed to epoch {e}"),
                LeaderEvent::Relayed { from, len } => {
                    println!("<< relayed {len} bytes from {from}");
                }
                LeaderEvent::Rejected { from, reason } => {
                    println!("<< rejected message claiming to be {from}: {reason}");
                }
            }
        }
    });

    // Command loop.
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let line = line?;
        let line = line.trim();
        if line == "quit" {
            break;
        } else if line == "rekey" {
            leader.rekey()?;
        } else if line == "roster" {
            println!(
                "roster: {:?} (epoch {:?})",
                leader
                    .roster()
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>(),
                leader.epoch()
            );
        } else if let Some(user) = line.strip_prefix("expel ") {
            match leader.expel(&ActorId::new(user.trim())?) {
                Ok(()) => println!("expelled {user}"),
                Err(e) => println!("cannot expel: {e}"),
            }
        } else if let Some(text) = line.strip_prefix("say ") {
            leader.broadcast(text.as_bytes())?;
        } else if let Some(text) = line.strip_prefix("cast ") {
            // Data plane: sealed once under the group key, one shared frame.
            match leader.broadcast_data(text.as_bytes()) {
                Ok(_) => {}
                Err(e) => println!("cannot cast: {e}"),
            }
        } else if line == "stats" {
            print!("{}{}", service.snapshot(), net.obs_registry().snapshot());
        } else if !line.is_empty() {
            println!(
                "commands: rekey | roster | expel <user> | say <text> | cast <text> | stats | quit"
            );
        }
    }
    service.shutdown();
    net.shutdown();
    Ok(())
}

fn run_member(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let connect = flag_value(args, "--connect").unwrap_or("127.0.0.1:7777");
    let user = flag_value(args, "--user").ok_or("--user required")?;
    let password = flag_value(args, "--password").ok_or("--password required")?;

    let net = MuxNet::spawn(MuxConfig::default());
    let member = MemberRuntime::connect(
        net.dialer(connect.parse()?),
        ActorId::new(user)?,
        ActorId::new("leader")?,
        password,
    )?;
    member.wait_joined(Duration::from_secs(10))?;
    println!(
        "joined as {user}; roster {:?}; type lines to chat, /leave to exit",
        member
            .roster()
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
    );

    let events = member.events().clone();
    std::thread::spawn(move || {
        while let Ok(event) = events.recv() {
            match event {
                MemberEvent::Broadcast { from, data, .. } if from.as_str() != "leader" => {
                    println!("<{from}> {}", String::from_utf8_lossy(&data));
                }
                MemberEvent::Broadcast { data, .. } => {
                    println!("[leader*] {}", String::from_utf8_lossy(&data));
                }
                MemberEvent::AdminData(data) => {
                    println!("[leader] {}", String::from_utf8_lossy(&data));
                }
                MemberEvent::MemberJoined(m) => println!("* {m} joined"),
                MemberEvent::MemberLeft(m) => println!("* {m} left"),
                MemberEvent::GroupKeyChanged { epoch } => {
                    println!("* group rekeyed (epoch {epoch})")
                }
                MemberEvent::LeaderLost => println!("* leader lost (liveness timeout)"),
                MemberEvent::RejoinStarted => println!("* rejoining as a fresh session"),
                MemberEvent::Welcomed { .. } | MemberEvent::SessionEstablished => {}
            }
        }
    });

    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let line = line?;
        if line.trim() == "/leave" {
            break;
        }
        if !line.trim().is_empty() {
            member.send_group_data(line.as_bytes())?;
        }
    }
    member.leave()?;
    net.shutdown();
    println!("left the group");
    Ok(())
}
