//! Scalar levelized zero-delay simulator.

use sdlc_netlist::{GateKind, NetId, Netlist};

/// Levelized two-valued simulator with toggle accounting.
///
/// Because netlists are topologically ordered by construction, one forward
/// sweep per vector settles every net. Toggle counts accumulate between
/// consecutively applied vectors — the zero-delay switching-activity model
/// (each net transitions at most once per applied vector).
///
/// # Examples
///
/// ```
/// use sdlc_netlist::Netlist;
/// use sdlc_sim::LogicSim;
///
/// let mut n = Netlist::new("and");
/// let a = n.add_input("a");
/// let b = n.add_input("b");
/// let y = n.and2(a, b);
/// n.set_output_bus("y", vec![y]);
///
/// let mut sim = LogicSim::new(&n);
/// sim.apply(&[true, true]);
/// assert_eq!(sim.outputs(), vec![true]);
/// sim.apply(&[true, false]);
/// assert_eq!(sim.outputs(), vec![false]);
/// assert_eq!(sim.toggles()[y.index()], 1);
/// ```
#[derive(Debug, Clone)]
pub struct LogicSim<'n> {
    netlist: &'n Netlist,
    values: Vec<bool>,
    toggles: Vec<u64>,
    vectors_applied: u64,
}

impl<'n> LogicSim<'n> {
    /// Creates a simulator with all nets at 0 and no recorded activity.
    #[must_use]
    pub fn new(netlist: &'n Netlist) -> Self {
        Self {
            netlist,
            values: vec![false; netlist.net_count()],
            toggles: vec![0; netlist.net_count()],
            vectors_applied: 0,
        }
    }

    /// Applies one input vector (ordered like `netlist.inputs()`) and
    /// settles the netlist, counting value changes against the previous
    /// state.
    ///
    /// # Panics
    ///
    /// Panics if the stimulus length differs from the input count.
    pub fn apply(&mut self, stimulus: &[bool]) {
        let inputs = self.netlist.inputs();
        assert_eq!(stimulus.len(), inputs.len(), "stimulus width mismatch");
        let first = self.vectors_applied == 0;
        let mut input_iter = stimulus.iter();
        for gate in self.netlist.gates() {
            let new = match gate.kind {
                GateKind::Input => *input_iter.next().expect("one stimulus bit per input"),
                kind => {
                    // Gather pins into a stack buffer (max arity 3): one
                    // heap allocation per gate per vector used to dominate
                    // the whole sweep. `GateKind::evaluate` stays the
                    // single source of truth for the cell functions.
                    let mut pins = [false; 3];
                    for (pin, &net) in pins.iter_mut().zip(&gate.inputs) {
                        *pin = self.values[net.index()];
                    }
                    kind.evaluate(&pins[..gate.inputs.len()])
                }
            };
            let slot = &mut self.values[gate.output.index()];
            if *slot != new {
                *slot = new;
                if !first {
                    self.toggles[gate.output.index()] += 1;
                }
            }
        }
        self.vectors_applied += 1;
    }

    /// Current value of one net.
    #[must_use]
    pub fn value(&self, net: NetId) -> bool {
        self.values[net.index()]
    }

    /// Current values of the primary outputs, in declaration order.
    #[must_use]
    pub fn outputs(&self) -> Vec<bool> {
        self.netlist
            .outputs()
            .iter()
            .map(|o| self.values[o.index()])
            .collect()
    }

    /// Reads a named little-endian bus as an integer.
    ///
    /// # Panics
    ///
    /// Panics if the bus does not exist or exceeds 128 bits.
    #[must_use]
    pub fn read_bus(&self, name: &str) -> u128 {
        let bits = self
            .netlist
            .bus(name)
            .unwrap_or_else(|| panic!("no bus named {name}"));
        assert!(bits.len() <= 128, "bus {name} wider than 128 bits");
        bits.iter()
            .enumerate()
            .map(|(i, net)| u128::from(self.values[net.index()]) << i)
            .sum()
    }

    /// Per-net toggle counts accumulated so far (transitions between
    /// consecutive vectors; the first vector establishes state for free).
    #[must_use]
    pub fn toggles(&self) -> &[u64] {
        &self.toggles
    }

    /// Vectors applied so far.
    #[must_use]
    pub fn vectors_applied(&self) -> u64 {
        self.vectors_applied
    }

    /// Convenience: drive buses `a`/`b` with integers and return bus `p`.
    ///
    /// This matches the port convention of every multiplier generator in
    /// `sdlc-core::circuits`.
    ///
    /// # Panics
    ///
    /// Panics if buses `a`/`b` are missing or operands exceed their width.
    pub fn run_ab(&mut self, a: u128, b: u128) -> u128 {
        let stimulus = ab_stimulus(self.netlist, a, b);
        self.apply(&stimulus);
        self.read_bus("p")
    }
}

/// Builds the stimulus vector for netlists with `a`/`b` input buses.
///
/// # Panics
///
/// Panics if the buses are missing, operands overflow them, or the netlist
/// has inputs outside the two buses.
#[must_use]
pub fn ab_stimulus(netlist: &Netlist, a: u128, b: u128) -> Vec<bool> {
    let bus_a = netlist.bus("a").expect("input bus `a`");
    let bus_b = netlist.bus("b").expect("input bus `b`");
    assert!(
        bus_a.len() == 128 || a < (1u128 << bus_a.len()),
        "operand a overflows bus"
    );
    assert!(
        bus_b.len() == 128 || b < (1u128 << bus_b.len()),
        "operand b overflows bus"
    );
    assert_eq!(
        netlist.inputs().len(),
        bus_a.len() + bus_b.len(),
        "netlist has inputs beyond a/b"
    );
    let mut stimulus = Vec::with_capacity(netlist.inputs().len());
    let value_of = |net: NetId| -> bool {
        if let Some(pos) = bus_a.iter().position(|&n| n == net) {
            (a >> pos) & 1 == 1
        } else {
            let pos = bus_b.iter().position(|&n| n == net).expect("net in a bus");
            (b >> pos) & 1 == 1
        }
    };
    for &input in netlist.inputs() {
        stimulus.push(value_of(input));
    }
    stimulus
}

/// The scalar reference for the 64-lane engines: runs 64 [`LogicSim`]
/// streams over `words`, lane `l` of every word (one word per primary
/// input) being stream `l`'s vector. Returns each net's 64-lane plane after
/// the last word and its toggle total over all lanes, both indexed by
/// `NetId::index`.
#[cfg(test)]
pub(crate) fn lanewise_reference(netlist: &Netlist, words: &[Vec<u64>]) -> (Vec<u64>, Vec<u64>) {
    let mut planes = vec![0u64; netlist.net_count()];
    let mut toggles = vec![0u64; netlist.net_count()];
    for lane in 0..64 {
        let mut sim = LogicSim::new(netlist);
        for word in words {
            let stimulus: Vec<bool> = word.iter().map(|&w| (w >> lane) & 1 == 1).collect();
            sim.apply(&stimulus);
        }
        for (i, plane) in planes.iter_mut().enumerate() {
            *plane |= u64::from(sim.values[i]) << lane;
            toggles[i] += sim.toggles[i];
        }
    }
    (planes, toggles)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn adder4() -> Netlist {
        let mut n = Netlist::new("add4");
        let a = n.add_input_bus("a", 4);
        let b = n.add_input_bus("b", 4);
        let s = sdlc_netlist::adders::ripple_add(&mut n, &a, &b);
        n.set_output_bus("p", s);
        n
    }

    #[test]
    fn adder_simulates_exhaustively() {
        let n = adder4();
        let mut sim = LogicSim::new(&n);
        for a in 0..16u128 {
            for b in 0..16u128 {
                assert_eq!(sim.run_ab(a, b), a + b);
            }
        }
        assert_eq!(sim.vectors_applied(), 256);
    }

    #[test]
    fn toggles_count_changes_not_vectors() {
        let mut n = Netlist::new("buf");
        let a = n.add_input("a");
        let y = n.buf(a);
        n.set_output_bus("y", vec![y]);
        let mut sim = LogicSim::new(&n);
        sim.apply(&[false]); // first vector never counts
        sim.apply(&[true]);
        sim.apply(&[true]); // no change
        sim.apply(&[false]);
        assert_eq!(sim.toggles()[y.index()], 2);
        assert_eq!(sim.toggles()[a.index()], 2);
    }

    #[test]
    fn read_bus_and_value() {
        let n = adder4();
        let mut sim = LogicSim::new(&n);
        sim.run_ab(9, 6);
        assert_eq!(sim.read_bus("a"), 9);
        assert_eq!(sim.read_bus("b"), 6);
        assert_eq!(sim.read_bus("p"), 15);
        let a0 = n.bus("a").unwrap()[0];
        assert!(sim.value(a0));
    }

    #[test]
    #[should_panic(expected = "stimulus width mismatch")]
    fn wrong_stimulus_width_panics() {
        let n = adder4();
        LogicSim::new(&n).apply(&[true]);
    }

    #[test]
    #[should_panic(expected = "overflows bus")]
    fn operand_overflow_panics() {
        let n = adder4();
        let mut sim = LogicSim::new(&n);
        let _ = sim.run_ab(16, 0);
    }
}
