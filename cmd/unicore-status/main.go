// Command unicore-status is the CLI job monitor controller (JMC, §4.1,
// §5.7): it lists jobs, shows the coloured status display, saves task
// output, controls jobs, and follows the server-push event stream of a job
// instead of polling it.
//
// Usage:
//
//	unicore-status -gateway https://gw.fzj:8443 -usite FZJ -ca ca.pem -cred alice.pem list
//	unicore-status ... -json list
//	unicore-status ... status  FZJ-000042
//	unicore-status ... outcome FZJ-000042
//	unicore-status ... -json outcome FZJ-000042
//	unicore-status ... wait    FZJ-000042
//	unicore-status ... watch   FZJ-000042
//	unicore-status ... -o result.dat fetch FZJ-000042 out.dat
//	unicore-status ... abort   FZJ-000042
//	unicore-status ... hold    FZJ-000042
//	unicore-status ... resume  FZJ-000042
//	unicore-status ... metrics
//	unicore-status ... -per-replica -spans -json metrics
//
// wait awaits the terminal event over the event stream; watch streams every
// lifecycle event as it happens until the job finishes or the user
// interrupts — the events arrive pushed over the persistent stream; fetch
// streams a Uspace file to -o (or stdout) through the windowed parallel
// download engine, verifying the whole-file checksum incrementally; metrics
// scrapes the site's live telemetry (MsgMetrics), merged site-wide by default
// or per replica with -per-replica. -json switches list, outcome and metrics
// to machine-readable output.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"time"

	"unicore"
	"unicore/internal/ajo"
	"unicore/internal/core"
	"unicore/internal/deploy"
)

func main() {
	var (
		gatewayURL = flag.String("gateway", "", "gateway base URL (https://host:port)")
		usiteFlag  = flag.String("usite", "", "Usite name behind the gateway")
		caPath     = flag.String("ca", "ca.pem", "CA file")
		credPath   = flag.String("cred", "user.pem", "user credential file")
		outPath    = flag.String("o", "", "fetch: write the file here instead of stdout")
		jsonOut    = flag.Bool("json", false, "list, outcome, metrics: emit JSON instead of the table")
		perReplica = flag.Bool("per-replica", false, "metrics: one snapshot per origin instead of the site-wide merge")
		withSpans  = flag.Bool("spans", false, "metrics: include recent trace spans in the scrape")
	)
	flag.Parse()
	if *gatewayURL == "" || *usiteFlag == "" {
		log.Fatal("unicore-status: need -gateway and -usite")
	}
	args := flag.Args()
	if len(args) == 0 {
		log.Fatal("unicore-status: need a command (list, status, outcome, wait, watch, fetch, abort, hold, resume)")
	}
	usite := core.Usite(*usiteFlag)

	ca, err := deploy.LoadAuthority(*caPath)
	if err != nil {
		log.Fatalf("unicore-status: %v", err)
	}
	cred, err := deploy.LoadCredential(*credPath)
	if err != nil {
		log.Fatalf("unicore-status: %v", err)
	}
	sess, err := unicore.Dial(*gatewayURL, unicore.WithIdentity(cred, ca), unicore.WithSite(usite))
	if err != nil {
		log.Fatalf("unicore-status: %v", err)
	}

	cmd := args[0]
	jobArg := func() core.JobID {
		if len(args) < 2 {
			log.Fatalf("unicore-status: %s needs a job ID", cmd)
		}
		return core.JobID(args[1])
	}
	switch cmd {
	case "list":
		jobs, err := sess.List(context.Background())
		if err != nil {
			log.Fatalf("unicore-status: %v", err)
		}
		if *jsonOut {
			printJSON(jobs)
			return
		}
		if len(jobs) == 0 {
			fmt.Println("no jobs")
			return
		}
		fmt.Printf("%-14s %-10s %-20s %s\n", "JOB", "STATUS", "SUBMITTED", "NAME")
		for _, j := range jobs {
			fmt.Printf("%-14s %-10s %-20s %s\n", j.Job, j.Status, j.Submitted.Format(time.RFC3339), j.Name)
		}
	case "metrics":
		snaps, err := sess.Metrics(context.Background(), *perReplica, *withSpans)
		if err != nil {
			log.Fatalf("unicore-status: %v", err)
		}
		if *jsonOut {
			printJSON(snaps)
			return
		}
		for _, s := range snaps {
			if err := s.Flush(os.Stdout); err != nil {
				log.Fatalf("unicore-status: %v", err)
			}
		}
	case "status":
		sum, err := sess.Status(context.Background(), jobArg())
		if err != nil {
			log.Fatalf("unicore-status: %v", err)
		}
		printSummary(sum)
	case "wait":
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
		defer stop()
		sum, err := sess.Await(ctx, jobArg())
		if err != nil {
			log.Fatalf("unicore-status: %v", err)
		}
		printSummary(sum)
	case "watch":
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
		defer stop()
		ch, err := sess.Watch(ctx, jobArg())
		if err != nil {
			log.Fatalf("unicore-status: %v", err)
		}
		terminal := false
		for ev := range ch {
			printEvent(ev)
			terminal = ev.Terminal
		}
		if !terminal {
			if ctx.Err() != nil {
				log.Fatal("unicore-status: watch interrupted before the job finished")
			}
			log.Fatal("unicore-status: event stream ended before the job's terminal event")
		}
	case "fetch":
		if len(args) < 3 {
			log.Fatal("unicore-status: fetch needs a job ID and a Uspace file name")
		}
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
		defer stop()
		file := args[2]
		if *outPath != "" {
			n, err := sess.DownloadTo(ctx, jobArg(), file, *outPath)
			if err != nil {
				log.Fatalf("unicore-status: %v", err)
			}
			fmt.Fprintf(os.Stderr, "%d bytes → %s\n", n, *outPath)
			return
		}
		if _, err := sess.Download(ctx, jobArg(), file, os.Stdout); err != nil {
			log.Fatalf("unicore-status: %v", err)
		}
	case "outcome":
		o, err := sess.Outcome(context.Background(), jobArg())
		if err != nil {
			log.Fatalf("unicore-status: %v", err)
		}
		if *jsonOut {
			doc, err := ajo.MarshalOutcomeJSON(o)
			if err != nil {
				log.Fatalf("unicore-status: %v", err)
			}
			fmt.Printf("%s\n", doc)
			return
		}
		fmt.Print(unicore.Display(o))
	case "abort":
		if err := sess.Abort(context.Background(), jobArg()); err != nil {
			log.Fatalf("unicore-status: %v", err)
		}
		fmt.Println("aborted")
	case "hold":
		if err := sess.Hold(context.Background(), jobArg()); err != nil {
			log.Fatalf("unicore-status: %v", err)
		}
		fmt.Println("held")
	case "resume":
		if err := sess.Resume(context.Background(), jobArg()); err != nil {
			log.Fatalf("unicore-status: %v", err)
		}
		fmt.Println("resumed")
	default:
		log.Fatalf("unicore-status: unknown command %q", cmd)
	}
}

// printJSON emits one indented JSON document on stdout.
func printJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		log.Fatalf("unicore-status: encoding JSON: %v", err)
	}
}

func printSummary(sum ajo.Summary) {
	fmt.Printf("%s: %s (%d/%d actions done, %d failed)\n",
		sum.Job, sum.Status, sum.Done, sum.Total, sum.Failed)
}

func printEvent(ev unicore.JobEvent) {
	line := fmt.Sprintf("%s  #%-3d %-12s", ev.Time.Format(time.RFC3339), ev.Seq, ev.Type)
	if ev.Action != "" {
		line += " " + string(ev.Action)
	}
	line += " → " + ev.Status.String()
	if ev.Reason != "" {
		line += " (" + ev.Reason + ")"
	}
	fmt.Println(line)
}
