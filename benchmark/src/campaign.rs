//! `campaign`: a §II `HeraldedCampaign` at the paper configuration with
//! the integration time shrunk to `DURATION_S`. A pass runs the campaign
//! cold into a fresh directory (executes every shard and writes its
//! checkpoint), then resumes it (reads every checkpoint, executes
//! nothing). The only workload that writes and reads checkpoints.

use std::fs;
use std::path::{Path, PathBuf};

use qfc::campaign::checkpoint::{load_checkpoint, write_checkpoint, LoadOutcome};
use qfc::campaign::{
    run_campaign, CampaignManifest, CampaignOptions, CampaignWorkload, HeraldedCampaign,
};
use qfc::core::heralded::HeraldedConfig;
use qfc::core::source::QfcSource;
use qfc::faults::FaultSchedule;

use crate::metrics::{timed, Samples};
use crate::{PassOutput, Workload};

/// Integration time, s. Checkpoint parsing, not shard execution,
/// dominates the resume (see README.md), and its cost grows faster than
/// linearly with the payload size: 2 s gives 37 shards and ~1.3 MB of
/// checkpoints, which keeps a pass between about 0.7 s and 1.4 s. The
/// paper's 300 s does not finish in minutes.
const DURATION_S: f64 = 2.0;

/// Working directories live in the checkout, never outside it.
const WORK_ROOT: &str = ".bench_work";

pub struct Campaign {
    seed: u64,
    source: QfcSource,
    config: HeraldedConfig,
    schedule: FaultSchedule,
    root: PathBuf,
    passes: u64,
    /// The single-process driver's report, fixed by the first pass.
    reference: Option<String>,
}

impl Campaign {
    pub fn setup(seed: u64) -> Self {
        let mut config = HeraldedConfig::paper();
        config.duration_s = DURATION_S;
        Self {
            seed,
            source: QfcSource::paper_device(),
            config,
            schedule: FaultSchedule::empty(),
            // `run_campaign` creates the directories it checkpoints into.
            root: Path::new(WORK_ROOT).join(format!("campaign-{}", std::process::id())),
            passes: 0,
            reference: None,
        }
    }

    fn workload(&self) -> HeraldedCampaign<'_> {
        HeraldedCampaign {
            source: &self.source,
            config: &self.config,
            seed: self.seed,
            schedule: &self.schedule,
        }
    }
}

impl Drop for Campaign {
    fn drop(&mut self) {
        // Only an instance that ran a pass has created files.
        if self.passes == 0 {
            return;
        }
        let _ = fs::remove_dir_all(&self.root);
        // Succeeds only when no other run shares the work root.
        let _ = fs::remove_dir(WORK_ROOT);
    }
}

/// The process's `rchar` and `wchar` from `/proc/self/io`: the bytes it
/// has read and written through system calls, over all its threads.
/// The second value is the length of the text read, which the kernel
/// adds to `rchar` only after this call has taken its snapshot.
fn io_counters() -> Result<((u64, u64), u64), String> {
    let text = fs::read_to_string("/proc/self/io").map_err(|e| format!("/proc/self/io: {e}"))?;
    let field = |name: &str| {
        text.lines()
            .find_map(|line| line.strip_prefix(name))
            .and_then(|v| v.trim().parse::<u64>().ok())
            .ok_or_else(|| format!("/proc/self/io has no {name}"))
    };
    Ok(((field("rchar:")?, field("wchar:")?), text.len() as u64))
}

/// Runs `f` and returns the bytes the process read and wrote meanwhile,
/// not counting the reads of `/proc/self/io` itself.
fn io_during<T>(f: impl FnOnce() -> T) -> Result<((u64, u64), T), String> {
    let ((r0, w0), own) = io_counters()?;
    let out = f();
    let ((r1, w1), _) = io_counters()?;
    Ok(((r1 - r0 - own, w1 - w0), out))
}

impl Workload for Campaign {
    fn pass(&mut self) -> Result<PassOutput, String> {
        if self.reference.is_none() {
            let reference = self.workload().reference_json();
            self.reference = Some(reference.map_err(|e| e.to_string())?);
        }
        let dir = self.root.join(format!("pass-{}", self.passes));
        self.passes += 1;
        let opts = CampaignOptions::new(&dir);
        let workload = self.workload();

        let (cold_ms, cold) = timed(|| run_campaign(&workload, &opts));
        let cold = cold.map_err(|e| e.to_string())?;
        let (resume_ms, resume) = timed(|| run_campaign(&workload, &opts));
        let resume = resume.map_err(|e| e.to_string())?;
        fs::remove_dir_all(&dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;

        let total = cold.stats.shards_total;
        if cold.stats.shards_completed != total || resume.stats.shards_resumed != total {
            return Err(format!(
                "cold run executed {} and resume restored {} of {total} shards",
                cold.stats.shards_completed, resume.stats.shards_resumed
            ));
        }
        if resume.report_json != cold.report_json {
            return Err("resumed report differs from the cold report".to_owned());
        }
        if self.reference.as_deref() != Some(cold.report_json.as_str()) {
            return Err("campaign report differs from the single-process driver".to_owned());
        }
        Ok(PassOutput {
            bytes: cold.report_json.into_bytes(),
            layers: vec![
                ("campaign_cold_s", cold_ms / 1e3),
                ("campaign_resume_s", resume_ms / 1e3),
                ("campaign.shards", total as f64),
            ],
        })
    }

    /// `plan`, every `run_shard`, `write_checkpoint` and
    /// `load_checkpoint` on the same payloads, then `merge`: the merged
    /// report must equal the pass's.
    fn stages(&mut self, reference: &[u8]) -> Result<Samples, String> {
        let workload = self.workload();
        let dir = self.root.join("stages");
        fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let err = |e: qfc::faults::QfcError| e.to_string();

        let (plan_ms, shards) = timed(|| workload.plan());
        let shards = shards.map_err(err)?;
        let config = workload.config_json().map_err(err)?;
        let manifest = CampaignManifest::new(&workload.label(), workload.seed(), &config, shards)
            .map_err(err)?;
        let id = &manifest.campaign_id;
        let (run_ms, payloads) = timed(|| {
            manifest
                .shards
                .iter()
                .map(|s| workload.run_shard(s))
                .collect::<Result<Vec<_>, _>>()
        });
        let payloads = payloads.map_err(err)?;
        let ((_, bytes_written), (write_ms, written)) = io_during(|| {
            timed(|| {
                manifest
                    .shards
                    .iter()
                    .zip(&payloads)
                    .try_for_each(|(s, p)| write_checkpoint(&dir, id, s.index, p))
            })
        })?;
        written.map_err(err)?;
        let ((bytes_read, _), (load_ms, loaded)) = io_during(|| {
            timed(|| {
                manifest
                    .shards
                    .iter()
                    .map(|s| match load_checkpoint(&dir, id, s.index) {
                        LoadOutcome::Valid(p) => Ok(p),
                        other => Err(format!("shard {} did not load: {other:?}", s.index)),
                    })
                    .collect::<Result<Vec<_>, _>>()
            })
        })?;
        let loaded = loaded?;
        fs::remove_dir_all(&dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
        if loaded != payloads {
            return Err("loaded checkpoints differ from the written payloads".to_owned());
        }
        let (merge_ms, merged) = timed(|| workload.merge(&loaded));
        if merged.map_err(err)?.as_bytes() != reference {
            return Err("merged stages differ from the pass's report".to_owned());
        }
        let mb = bytes_read as f64 / 1e6;
        Ok(vec![
            ("campaign.plan_ms", plan_ms),
            ("campaign.run_shard_ms", run_ms),
            ("campaign.write_ms", write_ms),
            ("campaign.load_ms", load_ms),
            ("campaign.merge_ms", merge_ms),
            ("campaign.bytes_written", bytes_written as f64),
            ("campaign.bytes_read", bytes_read as f64),
            (
                "campaign.load_mb_per_s",
                if load_ms > 0.0 {
                    mb / (load_ms / 1e3)
                } else {
                    0.0
                },
            ),
        ])
    }
}
