//! Legacy model persistence: the checksummed JSON envelope, plus the
//! typed error and `fsck` machinery shared with the mmap layout.
//!
//! New artifacts are written in the zero-copy mapped layout by
//! [`crate::artifact`] (`EdgeModel::save_artifact`), and loading goes
//! through [`crate::artifact::ModelArtifact`], which sniffs the magic and
//! falls back to this module's envelope reader — existing artifacts stay
//! loadable forever, and `fsck --upgrade` migrates them. The envelope is
//! still what training checkpoints use ([`crate::checkpoint`]): they are
//! read-modify-write state, not serve-time weights, so zero-copy buys
//! nothing there.
//!
//! Every artifact (models here, training checkpoints in
//! [`crate::checkpoint`]) is written crash-safely — temp file, fsync, atomic
//! rename — and wrapped in a two-line envelope:
//!
//! ```text
//! {"magic":"EDGEART","envelope_version":1,"kind":"model","payload_bytes":N,"crc64":"…"}
//! { …payload JSON… }
//! ```
//!
//! The header carries the byte length and CRC-64/XZ of the payload, so the
//! loader distinguishes a truncated or bit-flipped file from a valid one and
//! returns [`PersistError::Corrupt`] instead of misreading it. JSON is
//! deliberately chosen over a binary format: models at the paper's scale are
//! a few tens of megabytes, and an inspectable artifact is worth more than
//! the size savings here.

use std::path::Path;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use edge_faults::{crc64, failpoint, fsio};
use edge_geo::GaussianMixture;
use edge_tensor::tape::{ParamId, ParamStore};
use edge_tensor::{CsrMatrix, Matrix};
use edge_text::EntityRecognizer;

use crate::config::EdgeConfig;
use crate::entity2vec::EntityIndex;
use crate::model::EdgeModel;

/// Errors from saving/loading a model.
#[derive(Debug)]
pub enum PersistError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// Serialization/deserialization failure.
    Format(serde_json::Error),
    /// The document was readable but internally inconsistent: bad magic,
    /// checksum mismatch, truncation, or invalid cross-references.
    Corrupt(String),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "artifact I/O error: {e}"),
            PersistError::Format(e) => write!(f, "artifact format error: {e}"),
            PersistError::Corrupt(msg) => write!(f, "corrupt artifact: {msg}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            PersistError::Format(e) => Some(e),
            PersistError::Corrupt(_) => None,
        }
    }
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<serde_json::Error> for PersistError {
    fn from(e: serde_json::Error) -> Self {
        PersistError::Format(e)
    }
}

/// First bytes of every EDGE artifact.
pub const MAGIC: &str = "EDGEART";
/// Version of the envelope itself (header line + checksummed payload line).
pub const ENVELOPE_VERSION: u32 = 1;
/// `kind` tag for saved models.
pub const KIND_MODEL: &str = "model";
/// `kind` tag for training checkpoints.
pub const KIND_CHECKPOINT: &str = "checkpoint";

/// The first line of every artifact file.
#[derive(Serialize, Deserialize)]
struct ArtifactHeader {
    magic: String,
    envelope_version: u32,
    kind: String,
    payload_bytes: usize,
    crc64: String,
}

fn crc_hex(payload: &[u8]) -> String {
    format!("{:016x}", crc64::checksum(payload))
}

/// Writes `payload` (a JSON document) to `path` under a checksummed envelope,
/// via temp-file + fsync + atomic rename. A crash at any point leaves either
/// the previous artifact or the complete new one — never a hybrid.
///
/// Failpoint: `persist.save` (fails before anything touches the disk); the
/// underlying `fsio.*` failpoints exercise the write/fsync/rename steps.
pub(crate) fn write_artifact(
    path: impl AsRef<Path>,
    kind: &str,
    payload: &str,
) -> Result<(), PersistError> {
    failpoint!("persist.save");
    let header = ArtifactHeader {
        magic: MAGIC.to_string(),
        envelope_version: ENVELOPE_VERSION,
        kind: kind.to_string(),
        payload_bytes: payload.len(),
        crc64: crc_hex(payload.as_bytes()),
    };
    let mut doc = serde_json::to_string(&header)?;
    doc.reserve(payload.len() + 1);
    doc.push('\n');
    doc.push_str(payload);
    fsio::atomic_write(path, doc.as_bytes())?;
    Ok(())
}

/// Reads and verifies the envelope at `path`, returning the header and the
/// checksum-verified payload. Any damage — missing header line, bad magic,
/// length mismatch, CRC mismatch — is a typed error, never a panic.
fn read_envelope(path: impl AsRef<Path>) -> Result<(ArtifactHeader, String), PersistError> {
    let raw = std::fs::read_to_string(path)?;
    let (header_line, payload) = raw
        .split_once('\n')
        .ok_or_else(|| PersistError::Corrupt("missing envelope header line".to_string()))?;
    let header: ArtifactHeader = serde_json::from_str(header_line)?;
    if header.magic != MAGIC {
        return Err(PersistError::Corrupt(format!(
            "bad magic {:?} (not an EDGE artifact)",
            header.magic
        )));
    }
    if header.envelope_version != ENVELOPE_VERSION {
        return Err(PersistError::Corrupt(format!(
            "envelope version {} (expected {ENVELOPE_VERSION})",
            header.envelope_version
        )));
    }
    if payload.len() != header.payload_bytes {
        return Err(PersistError::Corrupt(format!(
            "payload is {} bytes, header says {} (truncated or padded file)",
            payload.len(),
            header.payload_bytes
        )));
    }
    let actual = crc_hex(payload.as_bytes());
    if actual != header.crc64 {
        return Err(PersistError::Corrupt(format!(
            "checksum mismatch: computed {actual}, header says {}",
            header.crc64
        )));
    }
    Ok((header, payload.to_string()))
}

/// Like [`read_envelope`] but additionally checks the artifact `kind`.
pub(crate) fn read_artifact(
    path: impl AsRef<Path>,
    expected_kind: &str,
) -> Result<String, PersistError> {
    let (header, payload) = read_envelope(path)?;
    if header.kind != expected_kind {
        return Err(PersistError::Corrupt(format!(
            "artifact is a {:?} (expected {expected_kind:?})",
            header.kind
        )));
    }
    Ok(payload)
}

/// What `edge-cli fsck` reports for a healthy artifact.
#[derive(Debug)]
pub struct ArtifactInfo {
    /// `"model"` or `"checkpoint"`.
    pub kind: String,
    /// Envelope version (legacy) or mapped-layout version.
    pub envelope_version: u32,
    /// Payload size in bytes (whole file for mapped artifacts).
    pub payload_bytes: usize,
    /// Payload CRC-64/XZ (hex) for legacy envelopes; the section-table
    /// CRC for mapped artifacts. Verified either way.
    pub crc64: String,
    /// Payload schema version.
    pub payload_version: u32,
    /// One-line human summary of the payload contents.
    pub detail: String,
    /// Quantization mode of a mapped model (`None` for legacy artifacts).
    pub quant: Option<String>,
    /// Verified section table of a mapped artifact (empty for legacy).
    pub sections: Vec<crate::artifact::SectionInfo>,
}

/// Fully verifies the artifact at `path`: envelope + checksum + payload
/// parse + internal consistency. This is the engine behind `edge-cli fsck`.
/// Routes on the magic bytes: mapped artifacts get the section-table
/// verification in [`crate::artifact`], everything else the legacy
/// envelope checks below.
pub fn inspect_artifact(path: impl AsRef<Path>) -> Result<ArtifactInfo, PersistError> {
    if crate::artifact::sniff_mapped(path.as_ref())? {
        return crate::artifact::inspect_mapped(path.as_ref());
    }
    let (header, payload) = read_envelope(&path)?;
    let (payload_version, detail) = match header.kind.as_str() {
        KIND_MODEL => {
            let doc: SavedModel = serde_json::from_str(&payload)?;
            doc.validate()?;
            let detail = format!(
                "model: {} entities, {} parameter matrices, {} GCN layers, prior {}",
                doc.index.len(),
                doc.params.len(),
                doc.w_gcn.len(),
                if doc.prior.is_some() { "present" } else { "absent" }
            );
            (doc.format_version, detail)
        }
        KIND_CHECKPOINT => {
            let doc: crate::checkpoint::CheckpointState = serde_json::from_str(&payload)?;
            doc.validate()?;
            let detail = format!(
                "checkpoint: next epoch {}, lr {:.6}, {} parameter matrices, {} rollbacks",
                doc.next_epoch,
                doc.lr,
                doc.params.len(),
                doc.rollbacks
            );
            (doc.schema_version, detail)
        }
        other => {
            return Err(PersistError::Corrupt(format!("unknown artifact kind {other:?}")));
        }
    };
    Ok(ArtifactInfo {
        kind: header.kind,
        envelope_version: header.envelope_version,
        payload_bytes: header.payload_bytes,
        crc64: header.crc64,
        payload_version,
        detail,
        quant: None,
        sections: Vec::new(),
    })
}

/// The on-disk model payload. Version-tagged so future format changes can be
/// detected instead of misread.
#[derive(Serialize, Deserialize)]
pub(crate) struct SavedModel {
    pub(crate) format_version: u32,
    pub(crate) config: EdgeConfig,
    pub(crate) ner: EntityRecognizer,
    pub(crate) index: EntityIndex,
    pub(crate) adjacency: CsrMatrix,
    pub(crate) features: Matrix,
    pub(crate) params: ParamStore,
    pub(crate) w_gcn: Vec<ParamId>,
    pub(crate) q1: ParamId,
    pub(crate) b1: ParamId,
    pub(crate) q2: ParamId,
    pub(crate) b2: ParamId,
    /// Training-split location prior, used (opt-in) as a fallback for
    /// zero-entity tweets. `None` on models saved before it existed.
    pub(crate) prior: Option<GaussianMixture>,
}

/// Payload schema version. v2 added the envelope and the optional prior.
pub(crate) const FORMAT_VERSION: u32 = 2;

impl SavedModel {
    pub(crate) fn validate(&self) -> Result<(), PersistError> {
        if self.format_version != FORMAT_VERSION {
            return Err(PersistError::Corrupt(format!(
                "format version {} (expected {FORMAT_VERSION})",
                self.format_version
            )));
        }
        self.config
            .check()
            .map_err(|msg| PersistError::Corrupt(format!("invalid config: {msg}")))?;
        let n = self.index.len();
        if self.adjacency.rows() != n || self.adjacency.cols() != n {
            return Err(PersistError::Corrupt(format!(
                "adjacency is {}x{} but the index has {n} entities",
                self.adjacency.rows(),
                self.adjacency.cols()
            )));
        }
        if self.features.rows() != n || self.features.cols() != self.config.embed_dim {
            return Err(PersistError::Corrupt(format!(
                "feature matrix is {:?}, expected {n}x{}",
                self.features.shape(),
                self.config.embed_dim
            )));
        }
        let max_param = self
            .w_gcn
            .iter()
            .chain([&self.q1, &self.b1, &self.q2, &self.b2])
            .map(|p| p.0)
            .max()
            .unwrap_or(0);
        if max_param >= self.params.len() {
            return Err(PersistError::Corrupt(format!(
                "parameter id {max_param} out of range ({} stored)",
                self.params.len()
            )));
        }
        if self.w_gcn.len() != self.config.gcn_layers {
            return Err(PersistError::Corrupt(format!(
                "{} GCN weight matrices for {} configured layers",
                self.w_gcn.len(),
                self.config.gcn_layers
            )));
        }
        Ok(())
    }
}

impl EdgeModel {
    /// Saves the trained model in the legacy JSON envelope — crash-safe
    /// (temp file + fsync + atomic rename) and checksummed. `save_artifact`
    /// (zero-copy mmap layout, optional quantization) is the default
    /// format; this writer produces legacy-envelope artifacts for
    /// `--format legacy`, compatibility checks and cross-format parity.
    pub fn save_envelope(&self, path: impl AsRef<Path>) -> Result<(), PersistError> {
        let doc = self.to_saved()?;
        let json = serde_json::to_string(&doc)?;
        write_artifact(path, KIND_MODEL, &json)
    }

    /// Fallible because a mapped model materializes its lazy adjacency
    /// section here.
    pub(crate) fn to_saved(&self) -> Result<SavedModel, PersistError> {
        Ok(SavedModel {
            format_version: FORMAT_VERSION,
            config: self.config().clone(),
            ner: self.recognizer().clone(),
            index: self.entity_index().clone(),
            adjacency: self.try_adjacency()?.as_ref().clone(),
            features: self.feature_matrix().clone(),
            params: self.param_store().clone(),
            w_gcn: self.gcn_param_ids().to_vec(),
            q1: self.attention_param_ids().0,
            b1: self.attention_param_ids().1,
            q2: self.head_param_ids().0,
            b2: self.head_param_ids().1,
            prior: self.prior().cloned(),
        })
    }

    pub(crate) fn from_saved(doc: SavedModel) -> Self {
        Self::from_parts(
            doc.config,
            doc.ner,
            doc.index,
            Arc::new(doc.adjacency),
            doc.features,
            doc.params,
            doc.w_gcn,
            doc.q1,
            doc.b1,
            doc.q2,
            doc.b2,
            doc.prior,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::ArtifactLoad;
    use crate::model::TrainOptions;
    use crate::predict::{PredictOptions, PredictRequest, Predictor};
    use edge_data::{dataset_recognizer, nyma, PresetSize};

    fn trained() -> (EdgeModel, edge_data::Dataset) {
        let d = nyma(PresetSize::Smoke, 71);
        let (train, _) = d.paper_split();
        let mut cfg = EdgeConfig::smoke();
        cfg.epochs = 3;
        let (model, _) = EdgeModel::train(
            &train[..1000],
            dataset_recognizer(&d),
            &d.bbox,
            cfg,
            &TrainOptions::default(),
        )
        .expect("train");
        (model, d)
    }

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("edge_persist_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn save_load_round_trip_preserves_predictions() {
        let (model, d) = trained();
        let dir = tmp_dir("roundtrip");
        let path = dir.join("model.edge");
        model.save_envelope(&path).expect("save");
        let loaded = EdgeModel::load_artifact(&path).expect("load");

        let (_, test) = d.paper_split();
        let mut compared = 0;
        for t in test.iter().take(60) {
            let req = PredictRequest::text(&t.text);
            let opts = PredictOptions::default();
            match (model.locate(&req, &opts), loaded.locate(&req, &opts)) {
                (Ok(a), Ok(b)) => {
                    let (a, b) = (a.prediction, b.prediction);
                    assert_eq!(a.point, b.point, "points differ for: {}", t.text);
                    assert_eq!(a.attention, b.attention);
                    assert_eq!(a.mixture.weights(), b.mixture.weights());
                    compared += 1;
                }
                (Err(_), Err(_)) => {}
                _ => panic!("coverage differs after reload"),
            }
        }
        assert!(compared > 20, "compared only {compared}");

        // The saved artifact passes fsck and reports itself as a model.
        let info = inspect_artifact(&path).expect("fsck");
        assert_eq!(info.kind, KIND_MODEL);
        assert_eq!(info.payload_version, FORMAT_VERSION);
        assert!(info.detail.contains("entities"), "{}", info.detail);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_rejects_wrong_version() {
        let (model, _) = trained();
        let mut doc = model.to_saved().unwrap();
        doc.format_version = 999;
        assert!(matches!(doc.validate(), Err(PersistError::Corrupt(_))));
    }

    #[test]
    fn load_rejects_inconsistent_shapes() {
        let (model, _) = trained();
        let mut doc = model.to_saved().unwrap();
        doc.features = Matrix::zeros(3, 3);
        assert!(matches!(doc.validate(), Err(PersistError::Corrupt(_))));
    }

    #[test]
    fn load_rejects_garbage_file() {
        let dir = tmp_dir("garbage");
        // No newline at all: the envelope itself is missing → Corrupt.
        let path = dir.join("garbage.edge");
        std::fs::write(&path, "{not json").unwrap();
        assert!(matches!(EdgeModel::load_artifact(&path), Err(PersistError::Corrupt(_))));
        // A header line that is not valid JSON → Format.
        std::fs::write(&path, "{not json\n{}").unwrap();
        assert!(matches!(EdgeModel::load_artifact(&path), Err(PersistError::Format(_))));
        // Valid JSON header with the wrong magic → Corrupt.
        std::fs::write(
            &path,
            "{\"magic\":\"NOPE\",\"envelope_version\":1,\"kind\":\"model\",\"payload_bytes\":2,\"crc64\":\"0\"}\n{}",
        )
        .unwrap();
        assert!(matches!(EdgeModel::load_artifact(&path), Err(PersistError::Corrupt(_))));
        // Missing file → Io.
        assert!(matches!(
            EdgeModel::load_artifact(dir.join("missing.edge")),
            Err(PersistError::Io(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn envelope_detects_bit_flips_and_truncation() {
        let dir = tmp_dir("flips");
        let path = dir.join("tiny.edge");
        write_artifact(&path, KIND_MODEL, "{\"x\":12345}").unwrap();
        let good = std::fs::read(&path).unwrap();

        // Flip one bit in the payload: CRC catches it (the payload here is
        // not a valid SavedModel anyway, but the envelope must fail FIRST —
        // corrupt data should never even reach the deserializer).
        let mut flipped = good.clone();
        let last = flipped.len() - 2;
        flipped[last] ^= 0x01;
        std::fs::write(&path, &flipped).unwrap();
        assert!(matches!(read_artifact(&path, KIND_MODEL), Err(PersistError::Corrupt(_))));

        // Truncate: length check catches it.
        std::fs::write(&path, &good[..good.len() - 3]).unwrap();
        assert!(matches!(read_artifact(&path, KIND_MODEL), Err(PersistError::Corrupt(_))));

        // Intact file round-trips.
        std::fs::write(&path, &good).unwrap();
        assert_eq!(read_artifact(&path, KIND_MODEL).unwrap(), "{\"x\":12345}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn read_artifact_rejects_wrong_kind() {
        let dir = tmp_dir("kind");
        let path = dir.join("thing.edge");
        write_artifact(&path, KIND_CHECKPOINT, "{}").unwrap();
        match read_artifact(&path, KIND_MODEL) {
            Err(PersistError::Corrupt(msg)) => assert!(msg.contains("checkpoint"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}", other = other.err()),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_save_leaves_previous_artifact_intact() {
        let _s = edge_faults::FailScenario::setup();
        let dir = tmp_dir("atomic");
        let path = dir.join("artifact.edge");
        write_artifact(&path, KIND_MODEL, "{\"v\":1}").unwrap();

        for (fp, spec) in
            [("persist.save", "err"), ("fsio.write", "partial(10)"), ("fsio.rename", "err")]
        {
            edge_faults::configure(fp, spec).unwrap();
            let err = write_artifact(&path, KIND_MODEL, "{\"v\":2}").unwrap_err();
            assert!(matches!(err, PersistError::Io(_)), "{fp}: {err}");
            edge_faults::remove(fp);
            // The original artifact still verifies and carries the old payload.
            assert_eq!(read_artifact(&path, KIND_MODEL).unwrap(), "{\"v\":1}", "after {fp}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn persist_error_display_and_source() {
        let e = PersistError::Corrupt("boom".into());
        assert!(e.to_string().contains("boom"));
        let io = PersistError::from(std::io::Error::other("disk"));
        assert!(std::error::Error::source(&io).is_some());
    }
}
