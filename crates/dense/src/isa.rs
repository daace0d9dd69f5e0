//! Which codegen copy of a SIMD kernel a call routes through: the GEMM
//! tiles of `blas.rs` and the reflector lanes of `householder.rs` each
//! come in a baseline copy and an AVX2 copy. The crate is compiled for
//! the baseline target; the wide copies are opt-in per call, picked
//! here from the CPU at runtime. Every wide copy issues a multiply
//! followed by a *separate* add per lane (no FMA contraction), so the
//! choice never shows in the bits.

/// The codegen copy one kernel call runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum TileIsa {
    /// Baseline codegen.
    Base,
    /// AVX2 codegen (`fma` off — identical rounding).
    Avx2,
}

impl TileIsa {
    /// [`TileIsa::Avx2`] when the CPU supports 4-lane AVX2 doubles.
    pub(crate) fn pick() -> TileIsa {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                return TileIsa::Avx2;
            }
        }
        TileIsa::Base
    }
}
