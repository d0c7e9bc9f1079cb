//go:build !race

package shard

// raceEnabled reports a -race build, whose runtime allocates on
// synchronization paths, so malloc-counting tests skip under it.
const raceEnabled = false
