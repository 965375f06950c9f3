//! `ropus serve` — the online planner daemon: line-delimited JSON
//! commands on stdin, one JSON response per line on stdout.

use std::io::{BufReader, BufWriter};

use ropus::daemon::admission::policy_by_name;
use ropus::daemon::{Daemon, DaemonConfig};
use ropus_obs::ObsCtx;

use crate::args::Args;
use crate::obs::CliObs;
use crate::policy::PolicyFile;

const HELP: &str = "\
ropus serve — long-running planner: admit/depart demand incrementally

Reads one JSON command per stdin line and answers one JSON response per
stdout line. Commands:

    {\"cmd\":\"admit\",\"name\":NAME,\"level\":CPUS}      constant demand
    {\"cmd\":\"admit\",\"name\":NAME,\"samples\":[..]}    explicit demand
    {\"cmd\":\"depart\",\"name\":NAME}                  remove application
    {\"cmd\":\"migrate\",\"name\":NAME,\"server\":S}      move application
    {\"cmd\":\"tick\"}  /  {\"cmd\":\"tick\",\"slots\":N}    advance time
    {\"cmd\":\"snapshot\"}                             live plan + queue
    {\"cmd\":\"subscribe\"}                            stream telemetry
    {\"cmd\":\"shutdown\"}                             stats, then exit

Admission probes every open server under the policy's CoS commitments
and the admission policy accepts (naming a server), queues the request
until a deadline, or rejects it. Failed queue retries back off
exponentially. Migrations commit instantly by default; under
--paced-migrations they drain, transfer, and health-check across ticks
through the migration state machine.

After a subscribe command, every response line is followed by the
stream lines it produced: lifecycle events, SLO burn-rate alerts from
the per-app attainment engine each tick feeds, and (when --obs enables
a collector) per-tick metric snapshot deltas. Pipe the session through
`ropus watch` to render the stream; use --obs det for a stream that is
byte-identical across runs and --threads settings.

OPTIONS:
    --policy <FILE>       policy JSON (required)
    --admission <NAME>    admission policy: 'best-fit' (default) or
                          'first-fit'
    --weeks <N>           horizon for level-style demands (default 1)
    --threads <N>         refresh and admission-probe worker threads
                          (default 1; results are identical regardless of
                          thread count)
    --max-servers <N>     pool size cap (default unbounded)
    --queue-deadline <N>  ticks a queued admission survives (default 12;
                          0 rejects instead of queueing)
    --retry-backoff <N>   base ticks between queue retries, doubling
                          after each failure (default 1)
    --retry-attempts <N>  failed retries before a queued admission is
                          dropped (default 32)
    --paced-migrations    drive 'migrate' commands through the paced
                          migration state machine instead of committing
                          instantly
    --obs <MODE>          observability: 'off' (default), 'summary',
                          'json:PATH', 'det', or 'det:PATH' (det =
                          deterministic: null clock, byte-identical
                          snapshots and subscribe streams)
    --help                show this message";

/// Runs the subcommand.
///
/// # Errors
///
/// Returns a usage, I/O, or policy-file error message; protocol-level
/// problems are reported in-band as `ok: false` response lines.
pub fn run(tokens: &[String]) -> Result<(), String> {
    if tokens.iter().any(|t| t == "--help") {
        println!("{HELP}");
        return Ok(());
    }
    let args = Args::parse(tokens, &["paced-migrations"])?;
    let cli_obs = CliObs::from_args(&args)?;
    let policy = PolicyFile::load(args.require("policy")?)?;
    let admission = args.get("admission").unwrap_or("best-fit");
    let admission = policy_by_name(admission)
        .ok_or_else(|| format!("unknown admission policy {admission:?}"))?;

    let mut config = DaemonConfig::new(
        policy.server_spec(),
        policy.pool_commitments(),
        policy.qos_policy().normal,
        policy.calendar(),
    );
    config.weeks = args.get_parsed("weeks", 1usize)?;
    if config.weeks == 0 {
        return Err("--weeks must be at least 1".to_string());
    }
    config.threads = args.get_parsed("threads", 1usize)?;
    config.queue_deadline_slots = args.get_parsed("queue-deadline", 12u64)?;
    config.retry_backoff_base = args.get_parsed("retry-backoff", config.retry_backoff_base)?;
    config.retry_max_attempts = args.get_parsed("retry-attempts", config.retry_max_attempts)?;
    if args.has_switch("paced-migrations") {
        config.migration = ropus::prelude::MigrationConfig::paced();
    }
    if let Some(cap) = args.get("max-servers") {
        let cap: usize = cap.parse().map_err(|e| format!("bad --max-servers: {e}"))?;
        config.max_servers = Some(cap);
    }

    let mut daemon = Daemon::with_policy(config, admission);
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    daemon
        .run(
            BufReader::new(stdin.lock()),
            BufWriter::new(stdout.lock()),
            ObsCtx::from(cli_obs.collector()),
        )
        .map_err(|e| format!("serve I/O failed: {e}"))?;
    cli_obs.finish()
}
