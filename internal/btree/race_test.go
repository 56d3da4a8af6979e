//go:build race

package btree

func init() { raceEnabled = true }
