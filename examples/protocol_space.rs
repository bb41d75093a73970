//! Figures 3 and 4: the protocol space and its design-variable trends.
//!
//! Plots every protocol — the seven executable ones plus the literature
//! protocols the space unifies — on the two effort axes, and evaluates the
//! Figure 4 trends at each point.
//!
//! ```sh
//! cargo run --example protocol_space
//! ```

use failure_transparency::core::space::{
    ascii_plot, figure3_points, prevents_propagation_recovery, trends,
};

fn main() {
    println!("Figure 3 — the space of consistent-recovery protocols\n");
    let pts = figure3_points();
    println!("{}", ascii_plot(&pts, 64, 18));

    println!("Figure 4 — design-variable trends at each point\n");
    println!(
        "{:<26} {:>9} {:>14} {:>11} {:>18} {:>20}  prevents Lose-work",
        "protocol",
        "nd effort",
        "visible effort",
        "commit freq",
        "constrained reexec",
        "propagation survival"
    );
    for p in &pts {
        let t = trends(p.nd_effort, p.visible_effort);
        let blocks_losework = match p.protocol.map(prevents_propagation_recovery) {
            Some(true) => "yes",
            Some(false) => "no",
            None => "-",
        };
        println!(
            "{:<26} {:>9.2} {:>14.2} {:>11.2} {:>18.2} {:>20.2}  {blocks_losework}",
            p.name,
            p.nd_effort,
            p.visible_effort,
            t.commit_frequency,
            t.constrained_reexecution,
            t.propagation_survival
        );
    }
}
