// Package hdl provides a structural netlist intermediate representation for
// hardware designs, playing the role FIRRTL plays in the Sonar paper.
//
// A Netlist is a flat registry of named, width-annotated signals (wires,
// registers, constants, ports) plus the set of 2:1 multiplexers connecting
// them. The IR deliberately carries only the structural facts Sonar's
// analyses need:
//
//   - MUX connectivity, so cascaded 2:1 MUXes can be traced bottom-up into
//     n:1 contention points (paper §5.1);
//   - signal names, so request validity can be determined by prefix pattern
//     matching (paper Algorithm 1);
//   - declared fan-in ("sources"), so validity can be derived from source
//     signals when no same-prefix valid signal exists;
//   - constant-ness, so contention states without side-channel risk can be
//     filtered out statically (paper §5.2).
//
// Netlists are either parsed from a FIRRTL-style text form (package firrtl)
// or elaborated programmatically by the processor models (packages boom and
// nutshell), whose cycle-accurate simulators drive the declared signals every
// clock cycle. Runtime observation is done through per-signal watch hooks,
// which package monitor uses to collect contention-critical states.
//
// Netlist.Levelize is the one combinational schedule of a netlist: its
// muxes, prims and buffer signals in the order they settle within a cycle,
// plus the nodes left on a cycle no register breaks. The simulator (package
// sim) compiles it, the structural check (package check) reports its
// cyclic nodes, and the taint audit (package flow) propagates along it.
package hdl
