package fleet

// DropFreeStates empties the stack of shard states that no Run is using,
// so the next Run builds its state new: the fresh side of a reuse
// comparison.
func DropFreeStates() {
	shardSims.Lock()
	clear(shardSims.free)
	shardSims.free = shardSims.free[:0]
	shardSims.Unlock()
}

// FreeStates is how many shard states no Run is using.
func FreeStates() int {
	shardSims.Lock()
	defer shardSims.Unlock()
	return len(shardSims.free)
}
