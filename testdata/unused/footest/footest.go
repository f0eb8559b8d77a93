// Package footest is test harness: a package named *test is not checked.
package footest

// Helper is called by nothing: not reported.
func Helper() {}
