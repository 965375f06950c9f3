//! `serve-churn`: one closed-loop client drives the online planner
//! exactly as `ropus serve` does (parse → execute → serialize → drain the
//! telemetry stream). It admits one-week sampled apps, then churns:
//! ticks, departures each followed by a re-admission, and migrations to
//! a server with room, polling a snapshot of the plan now and then.

use std::time::Instant;

use ropus::prelude::*;
use ropus::{
    daemon::protocol::parse_command,
    prelude::{Command, Daemon, DaemonConfig, Response},
};
use ropus_trace::rng::Rng;

use crate::digest::Fnv;
use crate::harness::{since, timed_loop, unattributed, Report, RunConfig, THREADS};
use crate::spans::Spans;
use crate::stats::{median, Summary};

/// Fleet size and script length.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Apps admitted before the churn starts.
    pub apps: usize,
    /// Commands sent after the initial admissions.
    pub churn_commands: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        apps: 200,
        churn_commands: 3_500,
    };
    #[cfg(test)]
    pub const TINY: Scale = Scale {
        apps: 12,
        churn_commands: 80,
    };
}

/// One step of the churn.
#[derive(Debug, Clone, Copy)]
enum Step {
    Tick,
    /// A departure, then the same app's re-admission.
    Churn,
    Migrate,
}

/// The churn repeats this cycle: half the steps are ticks, a quarter
/// departure + re-admission pairs, a quarter migrations. A fixed cycle
/// keeps the mix, and the servers each tick must refresh, the same for
/// every seed; the seed picks which apps move and where.
const STEP_CYCLE: [Step; 4] = [Step::Tick, Step::Migrate, Step::Tick, Step::Churn];

/// Churn commands between two `snapshot` polls.
const SNAPSHOT_EVERY: usize = 50;

/// Headroom, CPUs, a migration target keeps beyond the mover's bound:
/// covers the capacity search tolerance.
const FIT_MARGIN: f64 = 0.1;

/// The protocol command kinds the client sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Admit,
    Depart,
    Migrate,
    Tick,
    Snapshot,
}

impl Kind {
    pub const ALL: [Kind; 5] = [
        Kind::Admit,
        Kind::Tick,
        Kind::Depart,
        Kind::Migrate,
        Kind::Snapshot,
    ];

    /// Span and metric name of the daemon's handling of this kind.
    pub fn layer(self) -> &'static str {
        match self {
            Kind::Admit => "daemon.admit",
            Kind::Depart => "daemon.depart",
            Kind::Migrate => "daemon.migrate",
            Kind::Tick => "daemon.tick",
            Kind::Snapshot => "daemon.snapshot",
        }
    }
}

/// One command line plus what the client needs to read its response.
#[derive(Debug, Clone)]
pub struct Sent {
    pub kind: Kind,
    pub app: usize,
    pub to: usize,
    pub line: String,
}

/// The closed-loop client. Each next command depends on the responses so
/// far, so every command it sends is valid and keeps the pool feasible:
/// departs and migrations name live apps, and a migration targets a
/// server other than the app's current one that has room for it — an
/// open one when one has room, an empty one otherwise.
///
/// Room is judged from an upper bound on each server's required
/// capacity. A `snapshot` poll every [`SNAPSHOT_EVERY`] churn commands
/// and each admission's reply make it exact; a migration in adds the
/// mover's peak allocation, which bounds what one more app can add.
pub struct Client<'a> {
    rng: Rng,
    apps: &'a [App],
    capacity: f64,
    /// Server of each app, `None` while not live.
    server_of: Vec<Option<usize>>,
    /// Live apps per server.
    members: Vec<usize>,
    /// Upper bound on each server's required capacity.
    required: Vec<f64>,
    live: Vec<usize>,
    next_admit: usize,
    readmit: Option<usize>,
    churn_left: usize,
    since_snapshot: usize,
    steps: usize,
    finished: bool,
}

impl<'a> Client<'a> {
    pub fn new(seed: u64, apps: &'a [App], capacity: f64, churn: usize) -> Self {
        Client {
            rng: Rng::seed_from_u64(seed).fork(0x5e27e),
            apps,
            capacity,
            server_of: vec![None; apps.len()],
            members: Vec::new(),
            required: Vec::new(),
            live: Vec::new(),
            next_admit: 0,
            readmit: None,
            churn_left: churn,
            since_snapshot: 0,
            steps: 0,
            finished: false,
        }
    }

    /// The next command, or `None` when the script is done. The script
    /// ends with a `snapshot` of the final pool.
    pub fn next_command(&mut self) -> Option<Sent> {
        if self.next_admit < self.apps.len() {
            self.next_admit += 1;
            return Some(self.admit(self.next_admit - 1));
        }
        if let Some(app) = self.readmit.take() {
            return Some(self.admit(app));
        }
        if self.churn_left == 0 {
            if self.finished {
                return None;
            }
            self.finished = true;
            return Some(snapshot());
        }
        self.churn_left -= 1;
        self.since_snapshot += 1;
        if self.since_snapshot >= SNAPSHOT_EVERY {
            self.since_snapshot = 0;
            return Some(snapshot());
        }
        let step = STEP_CYCLE[self.steps % STEP_CYCLE.len()];
        self.steps += 1;
        if matches!(step, Step::Churn) && !self.live.is_empty() {
            let app = self.live[self.rng.below(self.live.len())];
            // The re-admission is the pair's second command.
            self.churn_left = self.churn_left.saturating_sub(1);
            return Some(Sent {
                kind: Kind::Depart,
                app,
                to: 0,
                line: format!(r#"{{"cmd":"depart","name":"{}"}}"#, self.apps[app].name),
            });
        }
        if matches!(step, Step::Migrate) {
            if let Some(sent) = self.migration() {
                return Some(sent);
            }
        }
        Some(Sent {
            kind: Kind::Tick,
            app: 0,
            to: 0,
            line: r#"{"cmd":"tick"}"#.to_string(),
        })
    }

    fn admit(&self, app: usize) -> Sent {
        Sent {
            kind: Kind::Admit,
            app,
            to: 0,
            line: self.apps[app].admit_line.clone(),
        }
    }

    /// A migration of a random live app to a random other open server
    /// with room for it or, when none has room, to the lowest-numbered
    /// empty server (a new one when every server is in use).
    fn migration(&mut self) -> Option<Sent> {
        if self.live.is_empty() {
            return None;
        }
        let app = self.live[self.rng.below(self.live.len())];
        let from = self.server_of[app]?;
        let limit = self.capacity - self.apps[app].peak_allocation - FIT_MARGIN;
        let open: Vec<usize> = (0..self.members.len())
            .filter(|&s| s != from && self.members[s] > 0 && self.required[s] <= limit)
            .collect();
        let to = match self.rng.choose(&open) {
            Some((_, &to)) => to,
            None => (0..self.members.len())
                .find(|&s| self.members[s] == 0)
                .unwrap_or(self.members.len()),
        };
        Some(Sent {
            kind: Kind::Migrate,
            app,
            to,
            line: format!(
                r#"{{"cmd":"migrate","name":"{}","server":{to}}}"#,
                self.apps[app].name
            ),
        })
    }

    /// Mirrors the daemon's state from the response to `sent`.
    pub fn observe(&mut self, sent: &Sent, response: &Response) {
        if !response.ok {
            return;
        }
        match sent.kind {
            Kind::Admit => {
                if let (Some("accepted"), Some(server)) =
                    (response.decision.as_deref(), response.server)
                {
                    self.place(sent.app, server);
                    self.live.push(sent.app);
                    self.required[server] = response
                        .required
                        .unwrap_or(self.required[server] + self.apps[sent.app].peak_allocation);
                }
            }
            Kind::Depart => {
                self.unplace(sent.app);
                self.live.retain(|&a| a != sent.app);
                self.readmit = Some(sent.app);
            }
            Kind::Migrate => {
                if response.decision.as_deref() == Some("committed") {
                    self.unplace(sent.app);
                    self.place(sent.app, sent.to);
                    self.required[sent.to] += self.apps[sent.app].peak_allocation;
                }
            }
            Kind::Snapshot => {
                if let Some(plan) = &response.plan {
                    self.required.iter_mut().for_each(|r| *r = 0.0);
                    for s in &plan.servers {
                        if let Some(r) = self.required.get_mut(s.server) {
                            *r = s.required_capacity;
                        }
                    }
                }
            }
            Kind::Tick => {}
        }
    }

    fn place(&mut self, app: usize, server: usize) {
        if self.members.len() <= server {
            self.members.resize(server + 1, 0);
            self.required.resize(server + 1, 0.0);
        }
        self.members[server] += 1;
        self.server_of[app] = Some(server);
    }

    fn unplace(&mut self, app: usize) {
        if let Some(s) = self.server_of[app].take() {
            self.members[s] -= 1;
            if self.members[s] == 0 {
                self.required[s] = 0.0;
            }
        }
    }
}

fn snapshot() -> Sent {
    Sent {
        kind: Kind::Snapshot,
        app: 0,
        to: 0,
        line: r#"{"cmd":"snapshot"}"#.to_string(),
    }
}

/// Whether a response refuses the operation: an in-band error or a
/// rejected admission. Expired queued admissions are counted from ticks.
fn refused(response: &Response) -> bool {
    !response.ok || response.decision.as_deref() == Some("rejected")
}

/// What one pass of the script produced.
struct PassOut {
    digest: u64,
    commands: usize,
    refused: u64,
    expired: u64,
    bytes_in: usize,
    bytes_out: usize,
    latencies_ms: Vec<f64>,
    kinds: Vec<Kind>,
    servers: usize,
    capacity: f64,
    recomputes: u64,
}

/// One app the client may admit.
pub struct App {
    pub name: String,
    /// Its `admit` line, carrying one week of demand samples.
    pub admit_line: String,
    /// Upper bound on its translated allocation: peak demand times the
    /// QoS band's burst factor `1 / U_low`.
    pub peak_allocation: f64,
}

/// Inputs shared by every pass.
struct Script {
    config: DaemonConfig,
    apps: Vec<App>,
    seed: u64,
    churn: usize,
}

pub fn run(config: &RunConfig, scale: Scale) -> Report {
    let mut report = Report::default();
    let script = report.setup(|r| build_script(r, config.seed, scale));

    let mut passes: Vec<PassOut> = Vec::new();
    let mut spans = Spans::default();
    let mut traced: Vec<PassOut> = Vec::new();
    timed_loop(config, 1, |trace| {
        let start = Instant::now();
        let out = if trace {
            spans.time("pass", |s| run_script(&script, Some(s)))
        } else {
            run_script(&script, None)
        };
        let secs = since(start);
        report.attempted += out.commands as u64;
        report.failed += out.refused + out.expired;
        if trace {
            report.traced_pass_s.push(secs);
            traced.push(out);
        } else {
            report.pass_s.push(secs);
            report.op_ms.push(out.latencies_ms.clone());
            passes.push(out);
        }
    });

    let Some(first) = passes.first() else {
        report.check("serve-churn: a script pass completed", false);
        return report;
    };
    report.servers = first.servers as f64;
    report.capacity_cpus = first.capacity;
    let pass_s = median(&report.pass_s).unwrap_or(0.0);
    report.note(format!(
        "script: {} commands ({} bytes in), {:.0} commands/s, final pool {} servers / {:.2} CPUs",
        first.commands,
        first.bytes_in,
        first.commands as f64 / pass_s,
        first.servers,
        first.capacity
    ));
    for kind in Kind::ALL {
        let n = first.kinds.iter().filter(|&&k| k == kind).count();
        report.note(format!("  {}: {n} commands", kind.layer()));
    }
    report.check(
        "serve-churn: response stream digest identical across passes",
        passes
            .iter()
            .chain(&traced)
            .all(|p| p.digest == first.digest),
    );
    report.check(
        "serve-churn: every command accepted (no refusals, no expiries)",
        passes.iter().all(|p| p.refused == 0 && p.expired == 0),
    );

    if let Some(t) = traced.first() {
        for kind in Kind::ALL {
            let us: Vec<f64> = spans
                .durations(kind.layer())
                .iter()
                .map(|s| s * 1e6)
                .collect();
            let per_pass = us.len() / traced.len();
            let s = Summary::of(&us[..per_pass.min(us.len())]);
            let name = kind.layer();
            report.layer(format!("{name}.p50_us"), "us", s.p50);
            report.layer(format!("{name}.tail_us"), "us", s.tail);
            report.layer(format!("{name}.tail_pct"), "pct", s.tail_pct);
            report.layer(format!("{name}.count"), "count", s.count as f64);
        }
        let per_pass = |name: &str| spans.get(name).total_s / traced.len() as f64;
        report.layer("protocol.parse_s", "s", per_pass("protocol.parse"));
        report.layer("protocol.serialize_s", "s", per_pass("protocol.serialize"));
        report.layer("protocol.bytes_in", "bytes", t.bytes_in as f64);
        report.layer("protocol.bytes_out", "bytes", t.bytes_out as f64);
        report.layer("session.recomputes", "count", t.recomputes as f64);
        unattributed(&mut report, &spans);
    }
    report
}

/// Generates the apps, renders their admission lines and configures the
/// daemon.
fn build_script(report: &mut Report, seed: u64, scale: Scale) -> Script {
    let fleet = report.generate(|| {
        case_study_fleet(&FleetConfig {
            seed,
            apps: scale.apps,
            weeks: 1,
            ..FleetConfig::paper()
        })
    });
    let qos = AppQos::paper_default(Some(30));
    let apps = fleet
        .iter()
        .enumerate()
        .map(|(i, app)| {
            let name = format!("svc-{i:04}");
            App {
                admit_line: admit_line(&name, app.trace.iter()),
                peak_allocation: app.trace.peak() * qos.band().burst_factor(),
                name,
            }
        })
        .collect();
    let commitments =
        PoolCommitments::new(CosSpec::new(0.95, 60).expect("paper θ and deadline are valid"));
    let mut config = DaemonConfig::new(
        ServerSpec::sixteen_way(),
        commitments,
        qos,
        Calendar::five_minute(),
    );
    config.threads = THREADS;
    Script {
        config,
        apps,
        seed,
        churn: scale.churn_commands,
    }
}

/// Renders an `admit` line carrying explicit per-slot samples.
fn admit_line(name: &str, samples: impl Iterator<Item = f64>) -> String {
    let body: Vec<String> = samples.map(|v| v.to_string()).collect();
    format!(
        r#"{{"cmd":"admit","name":"{name}","samples":[{}]}}"#,
        body.join(",")
    )
}

/// Runs the whole script against a fresh daemon. Each command is timed
/// from its line to its serialized response and telemetry; a traced pass
/// also times each stage inside the command.
fn run_script(script: &Script, mut spans: Option<&mut Spans>) -> PassOut {
    let mut daemon = Daemon::new(script.config.clone());
    let mut client = Client::new(
        script.seed,
        &script.apps,
        script.config.server.capacity(),
        script.churn,
    );
    let mut out = PassOut {
        digest: 0,
        commands: 0,
        refused: 0,
        expired: 0,
        bytes_in: 0,
        bytes_out: 0,
        latencies_ms: Vec::new(),
        kinds: Vec::new(),
        servers: 0,
        capacity: 0.0,
        recomputes: 0,
    };
    let mut hash = Fnv::default();
    while let Some(sent) = client.next_command() {
        let start = Instant::now();
        let (response, lines) = match spans.as_deref_mut() {
            None => serve_line(&mut daemon, &sent.line),
            Some(s) => s.time("command", |s| traced_line(&mut daemon, &sent, s)),
        };
        out.latencies_ms.push(since(start) * 1e3);
        for line in &lines {
            hash.line(line);
            out.bytes_out += line.len() + 1;
        }
        out.commands += 1;
        out.bytes_in += sent.line.len() + 1;
        out.kinds.push(sent.kind);
        out.refused += u64::from(refused(&response));
        out.expired += response.expired.as_ref().map_or(0, |e| e.len() as u64);
        if let Some(plan) = &response.plan {
            out.servers = plan.servers_used;
            out.capacity = plan.required_capacity_total;
        }
        client.observe(&sent, &response);
    }
    out.digest = hash.finish();
    out.recomputes = daemon.stats().recomputes;
    out
}

/// One command as `Daemon::run` handles it: parse, execute, serialize the
/// response, drain and serialize the telemetry stream.
fn serve_line(daemon: &mut Daemon, line: &str) -> (Response, Vec<String>) {
    let response = match parse_command(line) {
        Ok(command) => daemon.execute(&command, ObsCtx::none()),
        Err(message) => return refusal(message),
    };
    let mut lines = vec![response.to_line()];
    lines.extend(daemon.drain_stream().iter().map(|l| l.to_line()));
    (response, lines)
}

/// [`serve_line`] with a span around each stage.
fn traced_line(daemon: &mut Daemon, sent: &Sent, s: &mut Spans) -> (Response, Vec<String>) {
    let command: Command = match s.time("protocol.parse", |_| parse_command(&sent.line)) {
        Ok(c) => c,
        Err(message) => return refusal(message),
    };
    let response = s.time(sent.kind.layer(), |_| {
        daemon.execute(&command, ObsCtx::none())
    });
    let lines = s.time("protocol.serialize", |_| {
        let mut lines = vec![response.to_line()];
        lines.extend(daemon.drain_stream().iter().map(|l| l.to_line()));
        lines
    });
    (response, lines)
}

/// The in-band reply to a line that does not parse.
fn refusal(message: String) -> (Response, Vec<String>) {
    let response = Response::error("error", message);
    let line = response.to_line();
    (response, vec![line])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn script(seed: u64) -> Script {
        let scale = Scale {
            churn_commands: 400,
            ..Scale::TINY
        };
        build_script(&mut Report::default(), seed, scale)
    }

    #[test]
    fn client_sends_only_valid_commands() {
        let mut sent = Vec::new();
        for seed in 0..4 {
            let s = script(seed);
            let out = run_script(&s, None);
            assert_eq!(out.refused, 0, "seed {seed}");
            assert_eq!(out.expired, 0, "seed {seed}");
            assert!(
                out.servers > 0,
                "seed {seed}: the final snapshot carries a plan"
            );
            sent.extend(out.kinds);
        }
        for kind in Kind::ALL {
            assert!(sent.contains(&kind), "no seed sent {kind:?}");
        }
    }

    #[test]
    fn naive_migration_targets_would_be_refused() {
        // The mirror is what keeps migrations valid: sending an app to the
        // server it already runs on is refused in-band.
        let s = script(1);
        let mut daemon = Daemon::new(s.config.clone());
        let (r, _) = serve_line(&mut daemon, &s.apps[0].admit_line);
        let server = r.server.expect("first admission is accepted");
        let line = format!(
            r#"{{"cmd":"migrate","name":"{}","server":{server}}}"#,
            s.apps[0].name
        );
        let (r, _) = serve_line(&mut daemon, &line);
        assert!(refused(&r));
    }

    #[test]
    fn traced_and_untraced_passes_answer_alike() {
        let s = script(2);
        let mut spans = Spans::default();
        let traced = run_script(&s, Some(&mut spans));
        let plain = run_script(&s, None);
        assert_eq!(traced.digest, plain.digest);
        assert_eq!(spans.durations("command").len(), plain.commands);
    }
}
