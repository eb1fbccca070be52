//go:build race

package netsim

func init() { raceEnabled = true }
