package fleet

import "demuxabr/internal/netsim"

// DropFreeStates empties the stack of shard states that no Run is using,
// so the next Run builds its state new (the fresh side of a reuse
// comparison), and returns how many it dropped.
func DropFreeStates() int { return len(shardSims.Drain()) }

// StateWork is what a shard state's simulator has done since it was built:
// the events its engine fired and its uplink's solver work.
type StateWork struct {
	Fired  uint64
	Solver netsim.SolverWork
}

// DrainWork empties the stack of free shard states and returns each one's
// work.
func DrainWork() []StateWork {
	var out []StateWork
	for _, sim := range shardSims.Drain() {
		out = append(out, StateWork{Fired: sim.eng.Fired(), Solver: sim.up.Work()})
	}
	return out
}

// The fleets shaped like the benchmark's fleet workloads.
var (
	VodFleet       = vodFleet
	ResilientFleet = resilientFleet
	LiveFleet      = liveFleet
)
