// Command unicore-submit is the CLI job preparation agent (JPA, §4.1): it
// reads a JSON job description, validates it against the destination site's
// resource pages, and consigns it over mutually authenticated TLS.
//
// Usage:
//
//	unicore-submit -gateway https://gw.fzj:8443 -ca ca.pem -cred alice.pem job.json
//	unicore-submit -gateway https://gw.fzj:8443 -ca ca.pem -cred alice.pem \
//	    -target FZJ/T3E -script "echo hello" -name quick
//	unicore-submit ... -stage-in input.dat=/data/huge.bin job.json
//
// -stage-in TO=LOCALPATH (repeatable) streams a local file into the
// destination Vsite's spool through the chunked staging engine before
// consigning, and adds an ImportTask referencing the committed transfer
// handle (Builder.ImportStaged) — so huge inputs never ride inline in the
// consign frame.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"unicore"
	"unicore/internal/ajo"
	"unicore/internal/client"
	"unicore/internal/core"
	"unicore/internal/deploy"
	"unicore/internal/resources"
)

func main() {
	var (
		gatewayURL = flag.String("gateway", "", "gateway base URL (https://host:port)")
		caPath     = flag.String("ca", "ca.pem", "CA file")
		credPath   = flag.String("cred", "user.pem", "user credential file")
		target     = flag.String("target", "", "USITE/VSITE for -script mode")
		script     = flag.String("script", "", "inline script body (alternative to a job file)")
		name       = flag.String("name", "cli job", "job name for -script mode")
		procs      = flag.Int("procs", 1, "processors for -script mode")
		skipCheck  = flag.Bool("skip-validate", false, "skip resource-page validation")
		site       = flag.String("site", "", `"auto" lets a federated gateway place the job: -target names just the USITE and the grid's broker picks the Vsite, possibly behind a peer gateway`)
	)
	var stageIns []string
	flag.Func("stage-in", "stage TO=LOCALPATH into the job's Uspace via the chunked upload engine (repeatable)", func(v string) error {
		if !strings.Contains(v, "=") {
			return fmt.Errorf("want TO=LOCALPATH, got %q", v)
		}
		stageIns = append(stageIns, v)
		return nil
	})
	flag.Parse()
	if *gatewayURL == "" {
		log.Fatal("unicore-submit: need -gateway")
	}

	ca, err := deploy.LoadAuthority(*caPath)
	if err != nil {
		log.Fatalf("unicore-submit: %v", err)
	}
	cred, err := deploy.LoadCredential(*credPath)
	if err != nil {
		log.Fatalf("unicore-submit: %v", err)
	}

	if *site != "" && *site != "auto" {
		log.Fatalf("unicore-submit: -site understands only \"auto\", got %q", *site)
	}
	auto := *site == "auto"
	job, err := buildJob(flag.Args(), *target, *script, *name, *procs, auto)
	if err != nil {
		log.Fatalf("unicore-submit: %v", err)
	}
	if auto {
		// An empty Vsite is the auto-placement shape: the gateway's broker
		// ranks every local and fresh-peer Vsite and may forward the consign.
		job.Target.Vsite = ""
		if len(stageIns) > 0 {
			// Staged uploads land in a concrete Vsite's spool and pin the
			// placement — incompatible with letting the broker choose.
			log.Fatal("unicore-submit: -stage-in needs a concrete -target USITE/VSITE, not -site auto")
		}
	}

	sess, err := unicore.Dial(*gatewayURL,
		unicore.WithIdentity(cred, ca), unicore.WithSite(job.Target.Usite))
	if err != nil {
		log.Fatalf("unicore-submit: %v", err)
	}
	jpa := sess.JPA()

	if len(stageIns) > 0 {
		if err := stageInputs(sess, job, stageIns); err != nil {
			log.Fatalf("unicore-submit: %v", err)
		}
	}

	if !*skipCheck && !auto {
		// With -site auto the destination Vsite is the broker's choice, so the
		// fit check happens at the gateway, not here.
		if _, err := jpa.FetchResources(job.Target.Usite); err != nil {
			log.Fatalf("unicore-submit: fetching resource pages: %v", err)
		}
		if err := jpa.Validate(job); err != nil {
			log.Fatalf("unicore-submit: job does not fit the destination: %v", err)
		}
	}
	// Submitting through the session mints a trace ID: the whole chain
	// (gateway dispatch, pool routing, NJS admission, journal sync) is then
	// visible via `unicore-status -spans metrics`.
	id, err := sess.Submit(context.Background(), job)
	if err != nil {
		log.Fatalf("unicore-submit: %v", err)
	}
	if trace, ok := sess.Trace(id); ok {
		log.Printf("trace %s", trace)
	}
	fmt.Println(id)
}

// stageInputs uploads each TO=LOCALPATH file into the destination Vsite's
// spool and adds an ImportTask referencing the committed handle, wired
// before every original root action so no task runs until its staged inputs
// are in the Uspace.
func stageInputs(sess *unicore.Session, job *ajo.AbstractJob, stageIns []string) error {
	g, err := job.Check()
	if err != nil {
		return err
	}
	roots := g.Roots()
	staged := client.NewJob("stage-in", job.Target)
	for _, si := range stageIns {
		to, local, _ := strings.Cut(si, "=")
		if to == "" || local == "" {
			return fmt.Errorf("bad -stage-in %q: want TO=LOCALPATH", si)
		}
		f, err := os.Open(local)
		if err != nil {
			return err
		}
		handle, err := sess.Upload(context.Background(), job.Target.Vsite, to, f)
		if cerr := f.Close(); cerr != nil && err == nil {
			// A deferred read error (NFS and friends) can surface at close;
			// a stage-in that silently uploaded short data must not pass.
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("staging %s: %w", local, err)
		}
		imp := staged.ImportStaged("staged input "+to, handle, to)
		for _, r := range roots {
			job.Dependencies = append(job.Dependencies, ajo.Dependency{Before: imp, After: ajo.ActionID(r)})
		}
		fmt.Fprintf(os.Stderr, "staged %s as %s (%s)\n", local, handle, to)
	}
	imports, err := staged.Build()
	if err != nil {
		return err
	}
	job.Actions = append(job.Actions, imports.Actions...)
	return nil
}

// buildJob assembles the job from a spec file or the -script flags. With
// -site auto the target is a bare USITE (core.ParseTarget wants USITE/VSITE,
// so the auto shape is built by hand).
func buildJob(args []string, target, script, name string, procs int, auto bool) (*ajo.AbstractJob, error) {
	if len(args) == 1 {
		spec, err := deploy.LoadJobSpec(args[0])
		if err != nil {
			return nil, err
		}
		return spec.Build()
	}
	if script == "" || target == "" {
		return nil, fmt.Errorf("need either a job file argument or -target and -script")
	}
	var tgt core.Target
	if auto && !strings.Contains(target, "/") {
		tgt = core.Target{Usite: core.Usite(target)}
	} else {
		var err error
		if tgt, err = core.ParseTarget(target); err != nil {
			return nil, err
		}
	}
	b := client.NewJob(name, tgt)
	b.Script("script", script+"\n", resources.Request{Processors: procs})
	return b.Build()
}
