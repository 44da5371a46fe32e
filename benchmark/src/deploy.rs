//! The deployment under test, assembled from the library's public
//! parts exactly as a user would: a durable central on disk, an edge
//! bootstrapped from it over TCP, both behind `NetServer`s on loopback.

use crate::decor::{CountingTransport, CryptoCounts, TimedSigner, TimedVerifier, TimedVfs};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use vbx_core::{VbScheme, VbTreeConfig};
use vbx_crypto::{rsa, Acc256, KeyRegistry, SigVerifier, Signer};
use vbx_edge::net::{bootstrap_edge, sync_stamp};
use vbx_edge::{
    CentralEndpoint, CentralServer, DurabilityConfig, EdgeEndpoint, EdgeServer, FrameEndpoint,
    NetClient, NetServer, TcpTransport, Transport,
};
use vbx_storage::{DiskVfs, Schema, Table, Vfs};

/// Limbs of the 256-bit accumulator group every workload uses.
pub const L: usize = 4;
pub type Scheme = VbScheme<L>;
pub type Central = CentralServer<Scheme>;

/// Delta-log retention (entries). Bounded so neither the heap nor the
/// checkpoint image grows with the length of the run; it also turns
/// on per-commit owner stamps, as a cluster deployment has them.
const DELTA_RETENTION: usize = 4096;

/// Tree shape of every table: the library's default fan-out.
pub fn tree_config() -> VbTreeConfig {
    VbTreeConfig::default()
}

fn scheme(acc: &Acc256) -> Scheme {
    VbScheme::new(acc.clone(), tree_config())
}

/// Flush policy of every run: fsync per commit, checkpoint every 1024
/// WAL-logged ops (the library default).
pub fn durability() -> DurabilityConfig {
    DurabilityConfig::default()
}

/// The keys of a run: RSA-1024 signing through the CRT fast path, and
/// its public half, which also condenses signatures at the edge. A
/// traced run wraps both in the timing decorators.
pub struct Keys {
    pub signer: Arc<dyn Signer>,
    pub verifier: Arc<dyn SigVerifier>,
    pub sign_counts: Arc<CryptoCounts>,
    pub verify_counts: Arc<CryptoCounts>,
}

impl Keys {
    pub fn new(traced: bool) -> Self {
        let pair = rsa::fixture_keypair_crt_1024();
        let verifier: Arc<dyn SigVerifier> = Arc::new(pair.public_key());
        let signer: Arc<dyn Signer> = Arc::new(pair);
        if !traced {
            return Self {
                signer,
                verifier,
                sign_counts: Arc::default(),
                verify_counts: Arc::default(),
            };
        }
        let signer = TimedSigner::new(signer);
        let verifier = TimedVerifier::new(verifier);
        Self {
            sign_counts: signer.counts.clone(),
            verify_counts: verifier.counts.clone(),
            signer: Arc::new(signer),
            verifier: Arc::new(verifier),
        }
    }
}

/// One running deployment.
pub struct Deployment {
    pub acc: Acc256,
    pub vfs: Arc<TimedVfs>,
    pub central: Arc<CentralEndpoint<L>>,
    pub edge: Arc<EdgeServer<Scheme>>,
    pub edge_srv: NetServer,
    central_srv: NetServer,
    pub schemas: BTreeMap<String, Schema>,
    pub registry: KeyRegistry,
    pub verifier: Arc<dyn SigVerifier>,
    /// Ops WAL-logged since the last checkpoint: what recovery replays.
    suffix_ops: AtomicU64,
}

impl Deployment {
    /// Set the deployment up in the empty directory `dir` and return
    /// it with the seconds that took: build and RSA-sign every table
    /// at the central, first durable checkpoint, edge bootstrapped over
    /// TCP from the bundle and answering a ping.
    pub fn set_up(dir: &Path, tables: &[Table], keys: &Keys) -> Result<(Self, f64), String> {
        let t0 = Instant::now();
        let acc = Acc256::test_default();
        let vfs = Arc::new(TimedVfs::open(dir).map_err(|e| format!("open vfs: {e}"))?);
        let mut central = CentralServer::with_scheme(scheme(&acc), keys.signer.clone())
            .with_delta_retention(DELTA_RETENTION)
            .with_durability(vfs.clone() as Arc<dyn Vfs>, durability())
            .map_err(|e| format!("durability: {e}"))?;
        for table in tables {
            central.create_table(table.clone());
        }
        if !central.durable() {
            return Err("central lost durability during set-up".into());
        }
        let central = Arc::new(CentralEndpoint::new(central));
        let central_srv = NetServer::spawn(
            TcpTransport
                .listen("127.0.0.1:0")
                .map_err(|e| format!("bind central: {e}"))?,
            central.clone() as Arc<dyn FrameEndpoint>,
        );

        let mut feed = NetClient::connect(&TcpTransport, central_srv.addr())
            .map_err(|e| format!("dial central: {e:?}"))?;
        let edge =
            Arc::new(bootstrap_edge(&mut feed, &acc).map_err(|e| format!("bootstrap: {e:?}"))?);
        sync_stamp(&mut feed, &edge).map_err(|e| format!("stamp: {e:?}"))?;
        let endpoint = EdgeEndpoint::new(edge.clone()).with_aggregator(keys.verifier.clone());
        let edge_srv = NetServer::spawn(
            TcpTransport
                .listen("127.0.0.1:0")
                .map_err(|e| format!("bind edge: {e}"))?,
            Arc::new(endpoint) as Arc<dyn FrameEndpoint>,
        );
        NetClient::connect(&TcpTransport, edge_srv.addr())
            .and_then(|mut c| c.ping())
            .map_err(|e| format!("ping edge: {e:?}"))?;
        let seconds = t0.elapsed().as_secs_f64();

        let mut registry = KeyRegistry::new();
        registry.publish(keys.verifier.clone(), 0);
        Ok((
            Self {
                acc,
                vfs,
                central,
                schemas: edge.schemas(),
                edge,
                edge_srv,
                central_srv,
                registry,
                verifier: keys.verifier.clone(),
                suffix_ops: AtomicU64::new(0),
            },
            seconds,
        ))
    }

    /// Dial the edge over a counting connection.
    pub fn dial_edge(&self, transport: &CountingTransport) -> Result<NetClient, String> {
        NetClient::connect(transport, self.edge_srv.addr()).map_err(|e| format!("dial edge: {e:?}"))
    }

    /// Note a commit of `ops` ops, made under the central's mutex: the
    /// central checkpoints, and resets its WAL, once `checkpoint_every`
    /// ops were logged.
    pub fn note_committed(&self, ops: u64) {
        let logged = self.suffix_ops.load(Ordering::SeqCst) + ops;
        let kept = if logged >= durability().checkpoint_every {
            0
        } else {
            logged
        };
        self.suffix_ops.store(kept, Ordering::SeqCst);
    }

    pub fn wal_suffix_ops(&self) -> u64 {
        self.suffix_ops.load(Ordering::SeqCst)
    }

    /// Stop both servers (joins every connection thread) and hand back
    /// what the post-run checks need.
    pub fn shut_down(self) -> (Arc<CentralEndpoint<L>>, Arc<TimedVfs>) {
        self.edge_srv.shutdown();
        self.central_srv.shutdown();
        (self.central, self.vfs)
    }
}

/// `CentralServer::recover` from the image in `dir`, timed.
pub fn recover(dir: &Path, keys: &Keys) -> Result<(Central, f64), String> {
    let vfs: Arc<dyn Vfs> = Arc::new(DiskVfs::open(dir).map_err(|e| format!("open image: {e}"))?);
    let t0 = Instant::now();
    let central = CentralServer::recover(
        scheme(&Acc256::test_default()),
        keys.signer.clone(),
        vfs,
        durability(),
    )
    .map_err(|e| format!("recover: {e}"))?;
    Ok((central, t0.elapsed().as_secs_f64()))
}

/// A fresh, empty directory under `root`.
pub fn fresh_dir(root: &Path, name: &str) -> Result<PathBuf, String> {
    let dir = root.join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}
