//! One driver per table / figure of the paper's evaluation.
//!
//! | Driver | Paper artefact |
//! |---|---|
//! | [`table1`] | Table I — slices & longest path at CF 1.5 vs 1.0 vs AMD |
//! | [`fig3`] | Figure 3 — placement irregularity at CF 1.5 vs 1.0 |
//! | [`fig4`] | Figure 4 — distribution of optimal CF over cnvW1A1 blocks |
//! | [`fig5`] | Figure 5 — AMD vs RW CF 1.68 vs RW minimal-CF placement |
//! | [`fig7`] | Figure 7 — data-set design-space coverage |
//! | [`fig8`] | Figure 8 — CF label distribution after per-bin capping |
//! | [`table2`] | Table II — estimator relative errors per feature set |
//! | [`fig9`] | Figure 9 — decision-tree feature importances |
//! | [`fig10`] | Figure 10 — predicted vs actual CF |
//! | [`fig11`] | Figure 11 — estimated vs actual CF on cnvW1A1 |
//! | [`fig12`] | Figure 12 — RF feature importance, cnvW1A1 as test set |
//! | [`fig13`] | Figure 13 / §VIII — estimator impact on the full flow |
//! | [`resolution`] | §VI-C — CF search-resolution study |
//! | [`ablations`] | beyond-paper ablations of the design choices |
//!
//! [`TARGETS`] names them all; the `paper_experiments` example and
//! `tms experiments` run them through [`select`].

pub mod ablations;
pub mod common;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod resolution;
pub mod table1;
pub mod table2;

use common::Scale;
use serde::Serialize;
use std::fmt::Display;

/// One paper target: its name and the function that runs its experiment
/// at a scale and renders the result as its display table, or as pretty
/// JSON when the flag is set.
#[derive(Debug, Clone, Copy)]
pub struct Target {
    /// The name a command line selects it by.
    pub name: &'static str,
    /// Run the experiment and render its result.
    pub run: fn(&Scale, bool) -> String,
}

/// Every paper target, in the order `all` runs them.
pub const TARGETS: [Target; 14] = [
    target("table1", |s, json| emit(table1::run(s.seed), json)),
    target("fig3", |s, json| emit(fig3::run(s.seed), json)),
    target("fig4", |s, json| emit(fig4::run(s.seed), json)),
    target("fig5", |s, json| emit(fig5::run(s), json)),
    target("fig7", |s, json| emit(fig7::run(s), json)),
    target("fig8", |s, json| emit(fig8::run(s), json)),
    target("table2", |s, json| emit(table2::run(s), json)),
    target("fig9", |s, json| emit(fig9::run(s), json)),
    target("fig10", |s, json| emit(fig10::run(s), json)),
    target("fig11", |s, json| emit(fig11::run(s), json)),
    target("fig12", |s, json| emit(fig12::run(s), json)),
    target("fig13", |s, json| emit(fig13::run(s), json)),
    target("resolution", |s, json| emit(resolution::run(s.seed), json)),
    target("ablations", |s, json| emit(ablations::run(s), json)),
];

const fn target(name: &'static str, run: fn(&Scale, bool) -> String) -> Target {
    Target { name, run }
}

fn emit<T: Display + Serialize>(value: T, json: bool) -> String {
    if json {
        serde_json::to_string_pretty(&value).expect("experiment results serialize")
    } else {
        value.to_string()
    }
}

/// The targets `names` selects, in the order given: every target when
/// `names` is empty or holds `all`. An unknown name is an error that
/// names it and lists the valid ones.
pub fn select(names: &[&str]) -> Result<Vec<Target>, String> {
    if names.is_empty() || names.contains(&"all") {
        return Ok(TARGETS.to_vec());
    }
    names
        .iter()
        .map(|&name| {
            TARGETS
                .iter()
                .find(|t| t.name == name)
                .copied()
                .ok_or_else(|| {
                    let valid: Vec<&str> = TARGETS.iter().map(|t| t.name).collect();
                    format!(
                        "unknown target '{name}'; valid targets: {} all",
                        valid.join(" ")
                    )
                })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_table_accepts_every_target_and_rejects_a_misspelling() {
        let names: Vec<&str> = TARGETS.iter().map(|t| t.name).collect();
        assert_eq!(
            names.join(" "),
            "table1 fig3 fig4 fig5 fig7 fig8 table2 fig9 fig10 fig11 fig12 fig13 resolution ablations"
        );
        for name in &names {
            let picked = select(&[name]).expect("a listed target is accepted");
            assert_eq!(picked.len(), 1);
            assert_eq!(picked[0].name, *name);
        }
        for everything in [&[][..], &["all"], &["fig5", "all"]] {
            let all: Vec<&str> = select(everything).unwrap().iter().map(|t| t.name).collect();
            assert_eq!(all, names, "{everything:?}");
        }
        let err = select(&["fig5", "tabel1"]).unwrap_err();
        assert!(err.contains("'tabel1'"), "{err}");
        for name in &names {
            assert!(err.contains(name), "the error lists {name}: {err}");
        }
    }
}
