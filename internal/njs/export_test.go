package njs

import (
	"fmt"
	"strings"

	"unicore/internal/checksum"
	"unicore/internal/core"
)

// ActionStates renders the state of each action of job id, in action order,
// then the job's own flags, for the tests of package njs_test. It is "" for
// an unknown job.
func ActionStates(n *NJS, id core.JobID) string {
	uj, ok := n.job(id)
	if !ok {
		return ""
	}
	uj.mu.Lock()
	defer uj.mu.Unlock()
	var b strings.Builder
	for _, s := range uj.acts {
		fmt.Fprintf(&b, "%s %s inflight=%v batch=%d child=%q", s.out.Action, s.out.Status, s.inflight, s.batch, s.child)
		if s.remote != nil {
			fmt.Fprintf(&b, " remote=%s/%s", s.remote.usite, s.remote.job)
		}
		for _, inj := range s.injections {
			fmt.Fprintf(&b, " inject=%s:%d:%016x", inj.name, len(inj.data), checksum.Checksum(inj.data))
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "done=%d held=%v aborted=%v\n", uj.ndone, uj.held, uj.aborted)
	return b.String()
}
