//! [`ShardedEngine`]: `r` replicas of `w` workers, served as one
//! [`ServeEngine`] with `r · w` workers on `r · w` reserved cores.
//!
//! A replica is a slice of the engine's workers, not an engine of its own:
//! every worker already owns its `RunContext` and binds to its own core, so
//! the workers of all replicas share one queue, one batcher, one watchdog
//! and one report. There is nothing to dispatch between, steal from or
//! merge.
//!
//! This type exists only for the benchmark's contract: `crates/e2e` (its
//! README lists the API it calls) uses `ShardedEngine::{new, make_request,
//! submit, report}` and reads [`ShardReport::fleet`]. Other callers use
//! [`ServeEngine`] directly and set [`ServeOptions::workers`].

use std::sync::Arc;

use crate::executor::Module;
use crate::serve::{Request, ServeEngine, ServeOptions, ServeReport};
use crate::{NeoError, Result};

/// Serving statistics of a [`ShardedEngine`] (see [`ShardedEngine::report`]).
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// The engine's report; `workers` counts the workers of every replica.
    pub fleet: ServeReport,
}

/// `replicas × opts.workers` workers behind one [`ServeEngine`] queue.
/// Dropping it shuts the engine down.
#[derive(Debug)]
pub struct ShardedEngine(ServeEngine);

impl ShardedEngine {
    /// Starts one engine over `module` with `replicas × opts.workers`
    /// workers; every other option applies as given.
    ///
    /// # Errors
    ///
    /// Returns [`NeoError::Config`] for zero replicas or a worker count
    /// that overflows, and whatever [`ServeEngine::new`] returns.
    pub fn new(module: Arc<Module>, replicas: usize, opts: &ServeOptions) -> Result<Self> {
        if replicas == 0 {
            return Err(NeoError::Config("a sharded engine needs at least one replica".into()));
        }
        let workers = opts.workers.checked_mul(replicas).ok_or_else(|| {
            NeoError::Config(format!(
                "{replicas} replicas × {} workers overflows the worker count",
                opts.workers
            ))
        })?;
        ServeEngine::new(module, &ServeOptions { workers, ..opts.clone() }).map(Self)
    }

    /// As [`ServeEngine::make_request`].
    pub fn make_request(&self) -> Arc<Request> {
        self.0.make_request()
    }

    /// As [`ServeEngine::submit`].
    ///
    /// # Errors
    ///
    /// As [`ServeEngine::submit`].
    pub fn submit(&self, req: &Arc<Request>) -> Result<()> {
        self.0.submit(req)
    }

    /// The engine's statistics snapshot.
    pub fn report(&self) -> ShardReport {
        ShardReport { fleet: self.0.report() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compile, CompileOptions, CpuTarget, OptLevel, PoolChoice};
    use neocpu_graph::GraphBuilder;
    use neocpu_tensor::{Layout, Tensor};

    fn batched_module(batch: usize) -> Arc<Module> {
        let mut b = GraphBuilder::new(23);
        let x = b.input([batch, 4, 8, 8]);
        let c = b.conv_bn_relu(x, 8, 3, 1, 1);
        let p = b.max_pool(c, 2, 2, 0);
        let f = b.flatten(p);
        let d = b.dense(f, 5);
        let s = b.softmax(d);
        let g = b.finish(vec![s]);
        let opts = CompileOptions::level(OptLevel::O2).with_pool(PoolChoice::Sequential);
        Arc::new(compile(&g, &CpuTarget::host(), &opts).unwrap())
    }

    #[test]
    fn replicas_are_workers_of_one_engine() {
        let m = batched_module(2);
        let opts = ServeOptions { workers: 1, ..Default::default() };
        let shard = ShardedEngine::new(Arc::clone(&m), 2, &opts).unwrap();
        let img = Tensor::random([1, 4, 8, 8], Layout::Nchw, 9, 1.0).unwrap();
        let req = shard.make_request();
        req.fill(&img).unwrap();
        shard.submit(&req).unwrap();
        req.wait().unwrap();

        let mut stacked = Tensor::zeros([2, 4, 8, 8], Layout::Nchw).unwrap();
        let n = img.data().len();
        stacked.data_mut()[..n].copy_from_slice(img.data());
        let img2 = img.data().to_vec();
        stacked.data_mut()[n..].copy_from_slice(&img2);
        let direct = m.run(std::slice::from_ref(&stacked)).unwrap();
        req.with_outputs(|outs| {
            assert_eq!(outs[0].data(), &direct[0].data()[..outs[0].data().len()]);
        })
        .unwrap();

        let rep = shard.report().fleet;
        assert_eq!(rep.workers, 2, "2 replicas × 1 worker is one 2-worker engine: {rep}");
        assert_eq!((rep.completed, rep.stolen), (1, 0), "{rep}");
    }

    #[test]
    fn invalid_replica_counts_are_config_errors() {
        let m = batched_module(2);
        let opts = ServeOptions { workers: 2, ..Default::default() };
        for n in [0, usize::MAX] {
            let err = ShardedEngine::new(Arc::clone(&m), n, &opts).unwrap_err();
            assert!(matches!(err, NeoError::Config(_)), "unexpected: {err}");
        }
    }
}
