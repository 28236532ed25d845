//! Fault points and the injector trait library code consults.

use std::fmt;
use std::io;

/// An instrumented failure site somewhere in the serving stack.
///
/// Each variant corresponds to one place where production code asks the
/// injector "should this operation fail now?" before doing real work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultPoint {
    /// A log append inside `tms-store::Store::put`.
    StoreAppend,
    /// An fsync — `Store::flush`, or the temp-file fsync of the log
    /// rewrite during compaction.
    StoreFsync,
    /// Opening/recovering a store directory.
    StoreOpen,
    /// The atomic rename that puts a compaction's rewritten log in place
    /// of `wal.log`.
    StoreRename,
    /// A place-and-route tool run inside `implement_module` (transient:
    /// the real CAD failure the paper's flow is built around).
    FlowPlace,
    /// The routing/stitching step of the full-design flow.
    FlowRoute,
    /// Reading a request line from a client socket (models the peer
    /// vanishing mid-request).
    ServeRead,
    /// Writing a response line back to a client socket.
    ServeWrite,
    /// Silent corruption of a framed WAL record on its way to disk
    /// (models media rot / firmware bugs). Unlike the fail-stop points
    /// above, a hit does not error the operation — the written record is
    /// bit-flipped and the corruption must be *detected* later by the
    /// CRC / checksum / audit layers.
    StoreCorruptRecord,
    /// Silent corruption of a macro served from the implementation cache
    /// (models an in-memory flip or a decode bug). A hit mutates the
    /// returned module; the read-verification digest must catch it.
    CacheCorruptMacro,
}

impl FaultPoint {
    /// Every fault point, in stable declaration order — `index` indexes
    /// into this array.
    pub const ALL: [FaultPoint; 10] = [
        FaultPoint::StoreAppend,
        FaultPoint::StoreFsync,
        FaultPoint::StoreOpen,
        FaultPoint::StoreRename,
        FaultPoint::FlowPlace,
        FaultPoint::FlowRoute,
        FaultPoint::ServeRead,
        FaultPoint::ServeWrite,
        FaultPoint::StoreCorruptRecord,
        FaultPoint::CacheCorruptMacro,
    ];

    /// Stable dotted label, used in CLI flags, counters and error text.
    pub fn label(self) -> &'static str {
        match self {
            FaultPoint::StoreAppend => "store.append",
            FaultPoint::StoreFsync => "store.fsync",
            FaultPoint::StoreOpen => "store.open",
            FaultPoint::StoreRename => "store.rename",
            FaultPoint::FlowPlace => "flow.place",
            FaultPoint::FlowRoute => "flow.route",
            FaultPoint::ServeRead => "serve.read",
            FaultPoint::ServeWrite => "serve.write",
            FaultPoint::StoreCorruptRecord => "store.corrupt_record",
            FaultPoint::CacheCorruptMacro => "cache.corrupt_macro",
        }
    }

    /// Whether a hit at this point *corrupts data silently* instead of
    /// failing the operation. Call sites consult corruption points via
    /// [`FaultInjector::corrupt`], never via [`check_io`].
    pub fn is_corruption(self) -> bool {
        matches!(
            self,
            FaultPoint::StoreCorruptRecord | FaultPoint::CacheCorruptMacro
        )
    }

    /// Parse a dotted label back into a point (inverse of [`label`]).
    ///
    /// [`label`]: FaultPoint::label
    pub fn from_label(s: &str) -> Option<FaultPoint> {
        FaultPoint::ALL.into_iter().find(|p| p.label() == s)
    }

    /// Position of this point in [`FaultPoint::ALL`].
    pub fn index(self) -> usize {
        FaultPoint::ALL
            .iter()
            .position(|p| *p == self)
            .expect("every point is in ALL")
    }
}

impl fmt::Display for FaultPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The question library code asks before a fallible operation.
///
/// Implementations must be cheap and thread-safe: `should_fail` is called
/// on hot paths (every store put, every request read). The default
/// methods answer "never fail", so a no-op injector costs one virtual
/// call returning a constant; call sites may additionally gate on
/// [`armed`](FaultInjector::armed) to skip per-point bookkeeping
/// entirely when injection is disabled.
pub trait FaultInjector: Send + Sync {
    /// Whether this injector can ever answer `true`. `false` lets call
    /// sites skip the consult altogether.
    fn armed(&self) -> bool {
        false
    }

    /// Should the operation at `point` fail right now? A `true` counts as
    /// one injected fault.
    fn should_fail(&self, point: FaultPoint) -> bool {
        let _ = point;
        false
    }

    /// Consult a *corruption* point: when the point decides to fire, flip
    /// one deterministically chosen bit of `buf` in place and return
    /// `true` (counted as one injected fault). The default never
    /// corrupts. Implementations must derive the flipped position from
    /// their seed and per-point hit count, so a corruption campaign is
    /// exactly reproducible.
    fn corrupt(&self, point: FaultPoint, buf: &mut [u8]) -> bool {
        let _ = (point, buf);
        false
    }
}

/// The always-healthy injector: never armed, never fails.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopInjector;

impl FaultInjector for NoopInjector {}

/// A `&'static` no-op injector for default arguments.
pub fn noop() -> &'static NoopInjector {
    static NOOP: NoopInjector = NoopInjector;
    &NOOP
}

/// The canonical `io::Error` an injected fault surfaces as. The message
/// always carries the point label so tests (and humans reading logs) can
/// tell injected faults from real ones.
pub fn injected_io_error(point: FaultPoint) -> io::Error {
    io::Error::other(format!("injected fault: {}", point.label()))
}

/// Consult `inj` at `point` and convert a hit into the canonical
/// injected `io::Error` — the one-liner most IO call sites want.
pub fn check_io(inj: &dyn FaultInjector, point: FaultPoint) -> io::Result<()> {
    if inj.armed() && inj.should_fail(point) {
        Err(injected_io_error(point))
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip() {
        for p in FaultPoint::ALL {
            assert_eq!(FaultPoint::from_label(p.label()), Some(p));
            assert_eq!(FaultPoint::ALL[p.index()], p);
        }
        assert_eq!(FaultPoint::from_label("store.telepathy"), None);
    }

    #[test]
    fn noop_never_fails() {
        let n = noop();
        assert!(!n.armed());
        for p in FaultPoint::ALL {
            assert!(!n.should_fail(p));
            assert!(check_io(n, p).is_ok());
        }
    }

    #[test]
    fn injected_error_names_the_point() {
        let e = injected_io_error(FaultPoint::StoreFsync);
        assert!(e.to_string().contains("store.fsync"), "{e}");
    }
}
