// Command unicore-ctl is the declarative face of a UNICORE deployment: it
// validates, diffs, and applies topology spec files (deploy.TopologySpec).
//
//	unicore-ctl validate -f topology.json
//	unicore-ctl diff -f desired.json -current live.json
//	unicore-ctl apply -f topology.json -usite FZJ -ca ca.pem -cred gw.pem -listen :8443
//
// `apply` boots the declared site — UUDB, replica pools, gateway — and hands
// it to a reconcile controller that keeps the live deployment converged on
// the spec: it heals crashed replicas from their journals, rolls the fleet
// on generation bumps, and autoscales pools that declare bounds. The process
// serves until SIGINT/SIGTERM, then drains down cleanly (snapshot, kill,
// close journals).
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"unicore/internal/controller"
	"unicore/internal/core"
	"unicore/internal/deploy"
	"unicore/internal/gateway"
	"unicore/internal/sim"
)

func main() {
	log.SetFlags(0)
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "validate":
		err = runValidate(os.Stdout, os.Args[2:])
	case "diff":
		err = runDiff(os.Stdout, os.Args[2:])
	case "apply":
		err = runApply(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		log.Fatalf("unicore-ctl: %v", err)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage:
  unicore-ctl validate -f topology.json
  unicore-ctl diff -f desired.json -current live.json
  unicore-ctl apply -f topology.json -usite FZJ -ca ca.pem -cred gw.pem -listen :8443
`)
}

// runValidate parses the spec (which validates it) and prints a summary to
// w: one line per Vsite, then the verdict.
func runValidate(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("validate", flag.ExitOnError)
	specPath := fs.String("f", "", "topology spec file")
	fs.Parse(args)
	if *specPath == "" {
		return fmt.Errorf("validate: need -f")
	}
	spec, err := deploy.LoadTopology(*specPath)
	if err != nil {
		return err
	}
	for i := range spec.Sites {
		site := &spec.Sites[i]
		for j := range site.Vsites {
			v := &site.Vsites[j]
			extra := ""
			if v.Autoscale != nil {
				extra = fmt.Sprintf(" autoscale[%d,%d]", v.Autoscale.Min, v.Autoscale.Max)
			}
			fmt.Fprintf(w, "%s/%s: %s x%d gen %d%s\n", site.Usite, v.Name,
				v.Machine, v.DeclaredReplicas(), v.Generation, extra)
		}
	}
	fmt.Fprintf(w, "%s: valid (version %d, %d site(s))\n", *specPath, spec.Version, len(spec.Sites))
	return nil
}

// runDiff prints to w the changes taking -current to -f, one per line, in
// apply order. Exits 0 with "no changes" when the specs declare the same
// topology.
func runDiff(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	specPath := fs.String("f", "", "desired topology spec file")
	currentPath := fs.String("current", "", "currently applied topology spec file")
	fs.Parse(args)
	if *specPath == "" || *currentPath == "" {
		return fmt.Errorf("diff: need -f and -current")
	}
	desired, err := deploy.LoadTopology(*specPath)
	if err != nil {
		return err
	}
	current, err := deploy.LoadTopology(*currentPath)
	if err != nil {
		return err
	}
	changes := deploy.DiffTopology(current, desired)
	if len(changes) == 0 {
		fmt.Fprintln(w, "no changes")
		return nil
	}
	for _, c := range changes {
		fmt.Fprintln(w, c.String())
	}
	return nil
}

// runApply boots the declared site and serves it under continuous
// reconciliation until a signal arrives.
func runApply(args []string) error {
	fs := flag.NewFlagSet("apply", flag.ExitOnError)
	var (
		specPath  = fs.String("f", "", "topology spec file")
		usite     = fs.String("usite", "", "which declared usite this process serves")
		caPath    = fs.String("ca", "ca.pem", "CA file")
		credPath  = fs.String("cred", "gateway.pem", "server credential file")
		listen    = fs.String("listen", ":8443", "TLS listen address")
		stateRoot = fs.String("state-dir", "", "journal root (overrides the spec's journalDir)")
		interval  = fs.Duration("interval", controller.DefaultInterval, "reconcile cadence")
		advertise = fs.String("advertise", "", "this gateway's URL in federation advertisements (default: the spec's own peers entry for -usite)")
		fedEvery  = fs.Duration("fed-interval", 0, "federation gossip cadence (default one minute)")
	)
	fs.Parse(args)
	if *specPath == "" || *usite == "" {
		return fmt.Errorf("apply: need -f and -usite")
	}
	spec, err := deploy.LoadTopology(*specPath)
	if err != nil {
		return err
	}
	ca, err := deploy.LoadAuthority(*caPath)
	if err != nil {
		return err
	}
	cred, err := deploy.LoadCredential(*credPath)
	if err != nil {
		return err
	}
	stack, err := controller.NewStack(controller.StackConfig{
		Spec:      spec,
		Usite:     core.Usite(*usite),
		Cred:      cred,
		CA:        ca,
		Clock:     sim.RealClock{},
		StateRoot: *stateRoot,
		Interval:  *interval,

		AdvertiseURL:   *advertise,
		GossipInterval: *fedEvery,
	})
	if err != nil {
		return err
	}
	stack.Controller.Start()
	if stack.Federation != nil {
		log.Printf("unicore-ctl: federated with peers %v", stack.Federation.Peers())
	}
	l, err := net.Listen("tcp", *listen)
	if err != nil {
		return fmt.Errorf("%w (is another server on %s?)", err, *listen)
	}
	log.Printf("unicore-ctl: applied %s — serving usite %s on %s, reconciling every %s",
		*specPath, *usite, l.Addr(), *interval)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	errc := make(chan error, 1)
	go func() { errc <- gateway.ServeTLS(l, stack.Gateway, cred, ca) }()
	select {
	case sig := <-sigc:
		log.Printf("unicore-ctl: %s — draining down", sig)
		l.Close()
		// Give in-flight requests a beat to finish before retiring replicas.
		select {
		case <-errc:
		case <-time.After(2 * time.Second):
		}
	case err := <-errc:
		if err != nil {
			return err
		}
	}
	return stack.Close()
}
