// Command app is the module's only caller.
package main

import (
	"encoding/json"
	"io"

	"fixture"
	"fixture/lib"
)

// init and main are called by the runtime: not reported.
func init() {}

func main() {
	var s fixture.Session
	_ = s
	io.Copy(io.Discard, lib.Reader{})
	json.Marshal(lib.Doc{})
	lib.Map([]int{1}, func(x int) int { return x })
	_ = lib.Box[int]{}.Get()
	io.Copy(io.Discard, lib.Box[byte]{})
}
