//go:build race

package acacia

func init() { raceBuild = true }
