//! CPU target descriptors.
//!
//! The paper evaluates on three machines: an 18-core Intel Skylake with
//! AVX-512, a 24-core AMD EPYC with AVX2, and a 16-core ARM Cortex-A72 with
//! NEON. A [`CpuTarget`] captures the parameters the template and the
//! search need — vector width, core count, cache sizes — so the same stack
//! can be *parameterized* for each machine. On this reproduction's host the
//! AVX-512 and AVX2 microkernels execute for real; narrower targets (NEON)
//! are modeled by capping the SIMD lanes, which preserves the schedule
//! space shape even though the host ISA differs (see DESIGN.md).

use neocpu_search::AnalyticalModel;

/// Vector instruction family of a target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IsaKind {
    /// 512-bit AVX-512F (16 f32 lanes, 32 vector registers).
    Avx512,
    /// 256-bit AVX2+FMA (8 f32 lanes, 16 vector registers).
    Avx2,
    /// 128-bit NEON-class (4 f32 lanes, 32 vector registers).
    Neon,
    /// No SIMD assumption; scalar microkernel.
    Generic,
}

impl IsaKind {
    /// f32 lanes per vector.
    pub fn lanes(&self) -> usize {
        match self {
            Self::Avx512 => 16,
            Self::Avx2 => 8,
            Self::Neon => 4,
            Self::Generic => 1,
        }
    }

    /// Architectural vector registers available to a microkernel — the
    /// budget the schedule verifier checks `reg_n × (oc_bn / lanes)`
    /// accumulator tiles against.
    pub fn vector_registers(&self) -> usize {
        match self {
            Self::Avx512 => 32,
            Self::Avx2 => 16,
            Self::Neon => 32,
            Self::Generic => 16,
        }
    }
}

/// A CPU target description.
#[derive(Debug, Clone)]
pub struct CpuTarget {
    /// Stable name (keys the scheme database).
    pub name: String,
    /// Vector ISA.
    pub isa: IsaKind,
    /// Physical cores (the paper uses one thread per physical core, no
    /// hyper-threading).
    pub cores: usize,
    /// L1 data cache per core, bytes.
    pub l1d: usize,
    /// L2 cache per core, bytes.
    pub l2: usize,
    /// Peak per-core FMA throughput (MACs/s) for the analytical model.
    pub macs_per_sec: f32,
    /// Effective memory bandwidth (bytes/s) for transform-cost estimates.
    pub mem_bytes_per_sec: f32,
}

impl CpuTarget {
    /// The paper's C5.9xlarge: 18-core Intel Skylake, AVX-512.
    pub fn skylake_avx512() -> Self {
        Self {
            name: "skylake-avx512".into(),
            isa: IsaKind::Avx512,
            cores: 18,
            l1d: 32 * 1024,
            l2: 1024 * 1024,
            macs_per_sec: 9.6e10, // 2 FMA ports × 16 lanes × ~3 GHz
            mem_bytes_per_sec: 2.0e10,
        }
    }

    /// The paper's M5a.12xlarge: 24-core AMD EPYC, AVX2.
    pub fn epyc_avx2() -> Self {
        Self {
            name: "epyc-avx2".into(),
            isa: IsaKind::Avx2,
            cores: 24,
            l1d: 32 * 1024,
            l2: 512 * 1024,
            macs_per_sec: 2.4e10, // 1 FMA port × 8 lanes × ~3 GHz
            mem_bytes_per_sec: 1.5e10,
        }
    }

    /// The paper's A1.4xlarge: 16-core ARM Cortex-A72, NEON.
    pub fn arm_a72_neon() -> Self {
        Self {
            name: "arm-a72-neon".into(),
            isa: IsaKind::Neon,
            cores: 16,
            l1d: 32 * 1024,
            l2: 512 * 1024,
            macs_per_sec: 9.2e9, // 4 lanes × ~2.3 GHz
            mem_bytes_per_sec: 1.0e10,
        }
    }

    /// Describes the machine this process runs on (detected features).
    pub fn host() -> Self {
        let isa = host_isa();
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        Self {
            name: format!("host-{}", format!("{isa:?}").to_lowercase()),
            isa,
            cores,
            l1d: 32 * 1024,
            l2: 1024 * 1024,
            macs_per_sec: 4.8e10,
            mem_bytes_per_sec: 2.0e10,
        }
    }

    /// Preferred channel block (`x` in `NCHW[x]c`): the vector width.
    pub fn preferred_block(&self) -> usize {
        self.isa.lanes().max(4)
    }

    /// SIMD-lane cap handed to the kernels (narrower targets than the host
    /// run the portable microkernel).
    pub fn max_lanes(&self) -> usize {
        match self.isa {
            IsaKind::Generic => 1,
            isa => isa.lanes(),
        }
    }

    /// The analytical cost model parameterized for this target.
    pub fn analytical_model(&self) -> AnalyticalModel {
        AnalyticalModel {
            vec_lanes: self.isa.lanes(),
            macs_per_sec: self.macs_per_sec,
            mem_bytes_per_sec: self.mem_bytes_per_sec,
            l1_bytes: self.l1d,
        }
    }
}

fn host_isa() -> IsaKind {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            return IsaKind::Avx512;
        }
        if std::arch::is_x86_feature_detected!("avx2")
            && std::arch::is_x86_feature_detected!("fma")
        {
            return IsaKind::Avx2;
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        return IsaKind::Neon;
    }
    #[allow(unreachable_code)]
    IsaKind::Generic
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_machines() {
        assert_eq!(CpuTarget::skylake_avx512().cores, 18);
        assert_eq!(CpuTarget::skylake_avx512().isa.lanes(), 16);
        assert_eq!(CpuTarget::epyc_avx2().cores, 24);
        assert_eq!(CpuTarget::epyc_avx2().isa.lanes(), 8);
        assert_eq!(CpuTarget::arm_a72_neon().cores, 16);
        assert_eq!(CpuTarget::arm_a72_neon().isa.lanes(), 4);
    }

    #[test]
    fn host_target_is_consistent() {
        let t = CpuTarget::host();
        assert!(t.cores >= 1);
        assert!(t.preferred_block() >= 4);
        assert!(t.max_lanes() >= 1);
    }

    #[test]
    fn analytical_model_inherits_lanes() {
        let m = CpuTarget::epyc_avx2().analytical_model();
        assert_eq!(m.vec_lanes, 8);
    }
}
