//go:build race

package h2conn_test

func init() { raceEnabled = true }
