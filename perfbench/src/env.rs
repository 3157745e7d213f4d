//! The environment stamp every result carries, and the refusal to compare
//! results whose environments differ.

use std::path::Path;

use leishen::trace::json::Json;

/// What a result was measured on and with.
#[derive(Clone, Debug, PartialEq)]
pub struct Env {
    /// Workload name.
    pub workload: String,
    /// Whether this is the traced (per-layer) run.
    pub traced: bool,
    /// `std::thread::available_parallelism`.
    pub hw_threads: usize,
    /// Scan workers the workload asks for.
    pub workers: usize,
    /// Workers a scan of the whole corpus actually runs:
    /// `min(workers, hw_threads, ceil(txs / 32))`.
    pub effective_workers: usize,
    /// `release` or `debug`.
    pub profile: &'static str,
    /// Corpus and arrival-curve seed.
    pub seed: u64,
    /// Corpus scale (fraction of the paper's 272,984 benign transactions).
    pub scale: f64,
    /// Transactions in the corpus.
    pub txs: usize,
    /// Share of the corpus the detector flags.
    pub flagged_share: f64,
    /// Offered rate of an open-loop stream, tx/s.
    pub offered_tx_per_s: Option<f64>,
    /// Filesystem the verdict journal lives on.
    pub journal_fs: Option<String>,
}

/// The scan engine's chunk-size hint, which caps how many workers a batch
/// can occupy.
pub const CHUNK_HINT: usize = 32;

/// Hardware threads available to this process.
pub fn hw_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Workers a `workers`-thread engine really runs over `txs` transactions.
pub fn effective_workers(workers: usize, hw: usize, txs: usize) -> usize {
    workers.min(hw).min(txs.div_ceil(CHUNK_HINT)).max(1)
}

/// The build profile of this binary.
fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

impl Env {
    /// The stamp of a run on this machine and build.
    pub fn new(
        workload: &str,
        traced: bool,
        seed: u64,
        scale: f64,
        workers: usize,
        txs: usize,
        flagged: usize,
    ) -> Self {
        let hw = hw_threads();
        Env {
            workload: workload.into(),
            traced,
            hw_threads: hw,
            workers,
            effective_workers: effective_workers(workers, hw, txs),
            profile: profile(),
            seed,
            scale,
            txs,
            flagged_share: flagged as f64 / txs.max(1) as f64,
            offered_tx_per_s: None,
            journal_fs: None,
        }
    }

    /// The stamp as a JSON object.
    pub fn to_json(&self) -> Json {
        let opt_num = |v: Option<f64>| v.map_or(Json::Null, Json::Num);
        let opt_str = |v: &Option<String>| v.clone().map_or(Json::Null, Json::Str);
        Json::Obj(vec![
            ("workload".into(), Json::Str(self.workload.clone())),
            ("traced".into(), Json::Bool(self.traced)),
            ("hw_threads".into(), Json::Num(self.hw_threads as f64)),
            ("workers".into(), Json::Num(self.workers as f64)),
            (
                "effective_workers".into(),
                Json::Num(self.effective_workers as f64),
            ),
            ("profile".into(), Json::Str(self.profile.into())),
            ("seed".into(), Json::Num(self.seed as f64)),
            ("scale".into(), Json::Num(self.scale)),
            ("txs".into(), Json::Num(self.txs as f64)),
            ("flagged_share".into(), Json::Num(self.flagged_share)),
            ("offered_tx_per_s".into(), opt_num(self.offered_tx_per_s)),
            ("journal_fs".into(), opt_str(&self.journal_fs)),
        ])
    }
}

/// One metric in two results: name, unit, value in each, relative change.
pub type Delta = (String, String, f64, f64, f64);

/// Refuses to compare two results unless their `env` objects are equal;
/// otherwise lists the [`Delta`] of every metric both results carry.
pub fn compare(a: &Json, b: &Json) -> Result<Vec<Delta>, String> {
    let (Some(env_a), Some(env_b)) = (a.get("env"), b.get("env")) else {
        return Err("a result without an env stamp cannot be compared".into());
    };
    if env_a != env_b {
        let keys = match env_a {
            Json::Obj(members) => members.iter().map(|(k, _)| k.as_str()).collect(),
            _ => Vec::new(),
        };
        let differing: Vec<String> = keys
            .into_iter()
            .filter(|k| env_a.get(k) != env_b.get(k))
            .map(|k| format!("{k}: {:?} vs {:?}", env_a.get(k), env_b.get(k)))
            .collect();
        return Err(format!(
            "environments differ, refusing to compare ({})",
            if differing.is_empty() {
                "key sets differ".to_string()
            } else {
                differing.join("; ")
            }
        ));
    }
    let metrics = |r: &Json| match r.get("metrics") {
        Some(Json::Obj(m)) => m.clone(),
        _ => Vec::new(),
    };
    let theirs = metrics(b);
    let mut out = Vec::new();
    for (name, ma) in metrics(a) {
        let Some(mb) = theirs.iter().find(|(n, _)| *n == name).map(|(_, m)| m) else {
            continue;
        };
        let (Some(va), Some(vb)) = (
            ma.get("value").and_then(Json::as_f64),
            mb.get("value").and_then(Json::as_f64),
        ) else {
            continue;
        };
        let unit = ma
            .get("unit")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string();
        let rel = if va == 0.0 { 0.0 } else { (vb - va) / va };
        out.push((name, unit, va, vb, rel));
    }
    Ok(out)
}

/// Peak resident set size of this process so far, MB: the kernel's
/// high-water mark, the `VmHWM` line of `/proc/self/status`. 0 where the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Type of the filesystem holding `dir`: that of the longest mount point
/// in `/proc/self/mounts` that contains it.
pub fn filesystem_of(dir: &Path) -> String {
    let Ok(dir) = dir.canonicalize() else {
        return "unknown".into();
    };
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split(' ');
            let point = fields.nth(1)?.replace("\\040", " ");
            let fs = fields.next()?;
            dir.starts_with(&point)
                .then(|| (point.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env() -> Env {
        Env {
            workload: "scan-wild".into(),
            traced: false,
            hw_threads: 2,
            workers: 2,
            effective_workers: 2,
            profile: "release",
            seed: 42,
            scale: 0.1,
            txs: 27485,
            flagged_share: 180.0 / 27485.0,
            offered_tx_per_s: None,
            journal_fs: None,
        }
    }

    fn result(env: &Env, tx_per_s: f64) -> Json {
        Json::Obj(vec![
            ("env".into(), env.to_json()),
            (
                "metrics".into(),
                Json::Obj(vec![(
                    "tx_per_s".into(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(tx_per_s)),
                        ("unit".into(), Json::Str("tx/s".into())),
                    ]),
                )]),
            ),
        ])
    }

    #[test]
    fn same_environment_prints_a_delta() {
        let deltas = compare(&result(&env(), 100.0), &result(&env(), 110.0)).unwrap();
        assert_eq!(deltas.len(), 1);
        let (name, unit, a, b, rel) = &deltas[0];
        assert_eq!(
            (name.as_str(), unit.as_str(), *a, *b),
            ("tx_per_s", "tx/s", 100.0, 110.0)
        );
        assert!((rel - 0.1).abs() < 1e-12);
    }

    #[test]
    fn differing_environments_are_refused() {
        let mut other = env();
        other.hw_threads = 8;
        other.effective_workers = 8;
        let err = compare(&result(&env(), 100.0), &result(&other, 110.0)).unwrap_err();
        assert!(err.contains("hw_threads"), "{err}");
        let mut debug = env();
        debug.profile = "debug";
        assert!(compare(&result(&env(), 1.0), &result(&debug, 1.0)).is_err());
        let mut reseeded = env();
        reseeded.seed = 7;
        assert!(compare(&result(&env(), 1.0), &result(&reseeded, 1.0)).is_err());
        assert!(compare(&Json::Obj(vec![]), &result(&env(), 1.0)).is_err());
    }

    #[test]
    fn effective_workers_is_capped_by_hardware_and_batch_size() {
        assert_eq!(effective_workers(2, 2, 27485), 2);
        assert_eq!(effective_workers(4, 2, 27485), 2);
        assert_eq!(effective_workers(2, 2, 20), 1);
        assert_eq!(effective_workers(1, 8, 724), 1);
    }

    #[test]
    fn host_probes_answer() {
        assert!(peak_rss_mb() > 0.0);
        assert_ne!(filesystem_of(Path::new(".")), "unknown");
    }
}
