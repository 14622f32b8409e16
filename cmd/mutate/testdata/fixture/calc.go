// Package fixture is the module the mutate runner's own tests mutate.
package fixture

// Add returns a + b.
func Add(a, b int) int { return a + b }

// Double returns 2a.
func Double(a int) int { return a * 2 }
