//! The scalar reference for the 64-lane zero-delay engines, shared by the
//! differential suites.

use sdlc::netlist::Netlist;
use sdlc::sim::LogicSim;

/// Runs 64 [`LogicSim`] streams over `words`, lane `l` of every word (one
/// word per primary input) being stream `l`'s vector. Returns each net's
/// 64-lane plane after the last word and its toggle total over all lanes,
/// both indexed by `NetId::index`.
pub fn lanewise_reference(netlist: &Netlist, words: &[Vec<u64>]) -> (Vec<u64>, Vec<u64>) {
    let mut planes = vec![0u64; netlist.net_count()];
    let mut toggles = vec![0u64; netlist.net_count()];
    for lane in 0..64 {
        let mut sim = LogicSim::new(netlist);
        for word in words {
            let stimulus: Vec<bool> = word.iter().map(|&w| (w >> lane) & 1 == 1).collect();
            sim.apply(&stimulus);
        }
        for gate in netlist.gates() {
            let i = gate.output.index();
            planes[i] |= u64::from(sim.value(gate.output)) << lane;
            toggles[i] += sim.toggles()[i];
        }
    }
    (planes, toggles)
}
