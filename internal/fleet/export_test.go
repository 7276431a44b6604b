package fleet

// DropFreeStates empties the stack of shard states that no Run is using,
// so the next Run builds its state new (the fresh side of a reuse
// comparison), and returns how many it dropped.
func DropFreeStates() int { return len(shardSims.Drain()) }
