// Package nested is a module of its own, so a "/..." walk of the
// enclosing module must prune it as the go tool does. Its import
// resolves only inside this module: a loader that walked in would fail
// the type check instead of merely adding a package.
package nested

import "example.com/nested/missing"

// Use refers to the unresolvable import.
func Use() int { return missing.Value }
