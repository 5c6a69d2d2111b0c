//! The four workloads and the manifests they generate from the workload
//! seed. The program under test receives only these generated manifests.
//!
//! The seed becomes each manifest's `seed` (and, for `serve-ideal`, picks
//! the backend and seed of every submitted campaign). For the noisy and
//! ideal executors the seed changes no result value: it reaches only the
//! `seed` field of `summary.json`, so their work is the same on every
//! seed. It changes trajectory sampling, and it keeps the daemon from
//! deduplicating submissions.

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `manifests/paper.toml`: the paper's §V-B noisy campaign.
    PaperNoisy,
    /// 90 one-cell jobs: per-job and per-point fixed costs.
    ManyPoints,
    /// Trajectory executor, 64 shots per cell.
    Trajectory,
    /// `qufi serve` under two closed-loop clients.
    ServeIdeal,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::PaperNoisy,
        Workload::ManyPoints,
        Workload::Trajectory,
        Workload::ServeIdeal,
    ];

    /// The name passed as `--workload`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperNoisy => "paper-noisy",
            Workload::ManyPoints => "many-points",
            Workload::Trajectory => "trajectory",
            Workload::ServeIdeal => "serve-ideal",
        }
    }

    /// Parses a `--workload` value.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The campaign manifest of a campaign workload; `None` for
    /// `serve-ideal`, whose manifests come from [`serve_manifest`].
    pub fn manifest(self, seed: u64) -> Option<String> {
        let seed = toml_seed(seed);
        let text = match self {
            // Identical to manifests/paper.toml apart from the seed.
            Workload::PaperNoisy => format!(
                "[campaign]\nname = \"paper\"\nseed = {seed}\nthreads = 0\nexecutor = \"noisy\"\n\
                 workloads = [\"bv-4\", \"dj-4\", \"qft-4\"]\nbackends = [\"jakarta\"]\n\n\
                 [grid]\npreset = \"paper\"\n"
            ),
            Workload::ManyPoints => format!(
                "[campaign]\nname = \"many-points\"\nseed = {seed}\nthreads = 0\nexecutor = \"noisy\"\n\
                 workloads = [\"bv-5\", \"dj-5\", \"qft-5\", \"ghz-5\", \"qpe-4\", \"grover-3\"]\n\
                 backends = [\"jakarta\", \"casablanca\", \"lima\", \"bogota\", \"guadalupe\"]\n\
                 noise_scales = [0.5, 1.0, 2.0]\n\n\
                 [grid]\nthetas = [3.141592653589793]\nphis = [0.0]\n"
            ),
            Workload::Trajectory => format!(
                "[campaign]\nname = \"trajectory\"\nseed = {seed}\nthreads = 0\n\
                 executor = \"trajectory\"\nshots = 64\n\
                 workloads = [\"ghz-8\", \"qft-5\"]\nbackends = [\"guadalupe\"]\n\n\
                 [grid]\nthetas = [0.0, 1.5707963267948966, 3.141592653589793]\n\
                 phis = [0.0, 1.5707963267948966]\n"
            ),
            Workload::ServeIdeal => return None,
        };
        Some(text)
    }
}

/// Backends a `serve-ideal` campaign is drawn over.
const SERVE_BACKENDS: [&str; 5] = ["jakarta", "casablanca", "lima", "bogota", "guadalupe"];

/// The `seq`-th campaign client `client` submits under workload seed
/// `seed`: the ideal-executor paper grid over bv-4, dj-4 and qft-4 on a
/// backend and with a campaign seed drawn from (seed, client, seq).
/// Distinct draws keep the daemon from deduplicating the submissions.
pub fn serve_manifest(seed: u64, client: u64, seq: u64) -> String {
    let draw = qufi_core::engine::SeedHasher::new()
        .mix_u64(seed)
        .mix_u64(client)
        .mix_u64(seq)
        .finish();
    let backend = SERVE_BACKENDS[(draw % SERVE_BACKENDS.len() as u64) as usize];
    let draw = toml_seed(draw);
    // One thread per campaign: the daemon's two workers then use the two
    // cores between them.
    format!(
        "[campaign]\nname = \"serve-ideal\"\nseed = {draw}\nthreads = 1\nexecutor = \"ideal\"\n\
         workloads = [\"bv-4\", \"dj-4\", \"qft-4\"]\nbackends = [\"{backend}\"]\n\n\
         [grid]\npreset = \"paper\"\n"
    )
}

/// Manifest seeds are non-negative TOML integers (`i64`): larger values
/// are reduced modulo 2⁶³.
fn toml_seed(seed: u64) -> u64 {
    seed & i64::MAX as u64
}
