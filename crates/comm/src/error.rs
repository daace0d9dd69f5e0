//! Failure taxonomy of the SPMD runtime.
//!
//! Every way a rank can stop making progress maps onto one
//! [`CommError`] variant, so callers of [`crate::run`] can distinguish
//! the *origin* of a failure ([`CommError::Failed`]) from its blast
//! radius ([`CommError::PeerFailed`]) and from silent-loss detection by
//! the receive watchdog ([`CommError::Timeout`]).

use std::fmt;
use std::time::Duration;

/// Why an SPMD rank did not produce a result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// The failure originated on this rank: a panic in the rank
    /// closure, or a chaos-plan kill. `rank` is the failing rank and
    /// `payload` the stringified panic payload / kill description.
    Failed {
        /// The rank that failed.
        rank: usize,
        /// Stringified panic payload or fault description.
        payload: String,
    },
    /// A *different* rank failed first; this rank's blocked receive or
    /// collective was aborted by the poison broadcast instead of
    /// hanging forever. `rank` identifies the origin of the failure.
    PeerFailed {
        /// The rank where the failure originated.
        rank: usize,
        /// The origin's failure description.
        payload: String,
    },
    /// The receive watchdog fired: no failure was reported anywhere,
    /// but the expected message never arrived within the window
    /// (deadlocked collective order, dropped message, ...). Carries a
    /// full diagnostic dump of the stuck rank's state.
    Timeout(Box<TimeoutDiagnostics>),
}

/// Diagnostic snapshot produced when a blocked receive times out.
///
/// This is the SPMD analogue of a parallel debugger's "where is every
/// rank stuck" dump, restricted to what the stuck rank itself can see:
/// what it was waiting for, which operation of its program it had
/// reached (the *collective program counter*), and every message that
/// arrived but did not match ([`TimeoutDiagnostics::pending`]) — a
/// mis-ordered collective shows up there as a `(src, coll-tag)` pair
/// from the "future" collective.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimeoutDiagnostics {
    /// The rank that timed out.
    pub rank: usize,
    /// Source rank the blocked receive was matching on.
    pub src: usize,
    /// Tag the blocked receive was matching on (collective tags have
    /// the top bit set and carry the collective's sequence number; the
    /// [`fmt::Display`] rendering shows them as `coll/<family>#<pc>`).
    pub tag: u64,
    /// How long the watchdog waited before firing.
    pub waited: Duration,
    /// 1-based index of the communication operation that timed out
    /// (sends, receives and collectives all advance this counter).
    pub op_index: u64,
    /// Number of collectives entered so far on this rank — the
    /// collective program counter. Two ranks reporting different
    /// values for the same hang indicate a mis-ordered collective.
    pub collective_pc: u64,
    /// Name of the collective in progress, if the blocked receive was
    /// inside one (`"broadcast"`, `"allgather"`, `"reduce"`,
    /// `"allreduce"`, `"barrier"`).
    pub in_collective: Option<&'static str>,
    /// `(src, tag)` of every buffered message that arrived while
    /// waiting but did not match the blocked receive.
    pub pending: Vec<(usize, u64)>,
}

/// Render a tag, unfolding the internal collective namespace:
/// `coll/<family>#<collective pc>` for an eager collective,
/// `pending/<family>#<post seq>` for a posted exchange.
pub(crate) fn tag_repr(tag: u64) -> String {
    use crate::{COLL, CTRL_POISON, PENDING};
    if tag & COLL == 0 {
        tag.to_string()
    } else if tag == CTRL_POISON {
        "ctrl/poison".to_string()
    } else {
        let (space, rest) = if tag & PENDING == PENDING {
            ("pending", tag & !PENDING)
        } else {
            ("coll", tag & !COLL)
        };
        format!("{space}/{}#{}", rest & 7, rest >> 3)
    }
}

impl fmt::Display for TimeoutDiagnostics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rank {} timed out after {:.3}s waiting for (src={}, tag={}) at op {}",
            self.rank,
            self.waited.as_secs_f64(),
            self.src,
            tag_repr(self.tag),
            self.op_index,
        )?;
        write!(f, "; collective pc {}", self.collective_pc)?;
        if let Some(name) = self.in_collective {
            write!(f, " (inside {name})")?;
        }
        if self.pending.is_empty() {
            write!(f, "; no pending messages")?;
        } else {
            write!(f, "; {} pending: [", self.pending.len())?;
            for (i, (src, tag)) in self.pending.iter().take(16).enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "({src}, {})", tag_repr(*tag))?;
            }
            if self.pending.len() > 16 {
                write!(f, ", … {} more", self.pending.len() - 16)?;
            }
            write!(f, "]")?;
        }
        Ok(())
    }
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::Failed { rank, payload } => {
                write!(f, "rank {rank} failed: {payload}")
            }
            CommError::PeerFailed { rank, payload } => {
                write!(f, "aborted because peer rank {rank} failed: {payload}")
            }
            CommError::Timeout(diag) => write!(f, "receive watchdog: {diag}"),
        }
    }
}

impl std::error::Error for CommError {}

impl CommError {
    /// The rank a failure is attributed to (the origin for
    /// [`CommError::PeerFailed`], the stuck rank for
    /// [`CommError::Timeout`]).
    pub fn origin_rank(&self) -> usize {
        match self {
            CommError::Failed { rank, .. } | CommError::PeerFailed { rank, .. } => *rank,
            CommError::Timeout(diag) => diag.rank,
        }
    }

    /// True for [`CommError::PeerFailed`] (the failure originated
    /// elsewhere and this rank was aborted by containment).
    pub fn is_peer_failure(&self) -> bool {
        matches!(self, CommError::PeerFailed { .. })
    }

    /// True for [`CommError::Timeout`].
    pub fn is_timeout(&self) -> bool {
        matches!(self, CommError::Timeout(_))
    }

    /// Recovery classification: transient failures (watchdog timeouts —
    /// a delayed or dropped delivery, a slow rank) are worth retrying
    /// on the same grid; permanent failures (a rank panicked or was
    /// killed) require resuming without the dead rank. `PeerFailed` is
    /// classified as permanent: it is the blast radius of an origin
    /// failure, and the origin's own `Failed`/`Timeout` entry is the
    /// authoritative record a supervisor should classify instead.
    pub fn is_transient(&self) -> bool {
        matches!(self, CommError::Timeout(_))
    }
}
