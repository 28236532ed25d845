//! Output checks, run outside the timed window: every implemented module
//! and every stitched placement is audited by `tms-verify`.

use tms_core::flow::{ImplementedModule, RwFlowResult};
use tms_core::netlist::Netlist;
use tms_core::verify::{Auditor, Violation};

fn first(violations: Vec<Violation>) -> Result<(), String> {
    match violations.first() {
        None => Ok(()),
        Some(v) => Err(format!("{} violation(s), first {v}", violations.len())),
    }
}

/// Audit one implemented module, and against the netlist it was built
/// from where the caller holds that netlist.
pub fn module(
    auditor: &Auditor<'_>,
    m: &ImplementedModule,
    netlist: Option<&Netlist>,
) -> Result<(), String> {
    let mut v = auditor.audit_macro(&m.name, m.cf, &m.pblock, &m.placement);
    if let Some(netlist) = netlist {
        v.extend(auditor.audit_netlist(&m.name, m.cf, &m.pblock, &m.placement, netlist));
    }
    first(v)
}

/// Every module implemented, the placed/unplaced split adds up, and the
/// stitched placement is legal.
pub fn stitched(auditor: &Auditor<'_>, r: &RwFlowResult) -> Result<(), String> {
    if let Some(f) = r.failed.first() {
        return Err(format!("{} module(s) failed, first {f}", r.failed.len()));
    }
    let s = &r.stitch;
    if s.placed_count + s.unplaced_count != r.problem.instances.len() {
        return Err(format!(
            "placed {} + unplaced {} != {} instances",
            s.placed_count,
            s.unplaced_count,
            r.problem.instances.len()
        ));
    }
    first(auditor.audit_stitch(&r.problem, &s.positions))
}
