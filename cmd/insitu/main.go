// Command insitu runs a proxy simulation with in situ rendering: the
// Strawman batch workflow from the command line, optionally distributed
// over simulated MPI tasks and streamed to a browser.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"

	"insitu/internal/comm"
	"insitu/internal/conduit"
	"insitu/internal/device"
	"insitu/internal/sim"
	"insitu/internal/strawman"
)

// errUsage marks a flag value run refuses; main exits 2 on it, as flag does.
var errUsage = errors.New("usage")

func main() {
	if err := run(os.Args[1:], os.Stdout); errors.Is(err, errUsage) {
		fmt.Fprintln(os.Stderr, "insitu:", err)
		os.Exit(2)
	} else if err != nil {
		log.Fatal(err)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("insitu", flag.ExitOnError)
	proxy := fs.String("sim", "cloverleaf", "proxy: cloverleaf, kripke, or lulesh")
	steps := fs.Int("steps", 5, "simulation cycles")
	every := fs.Int("every", 1, "render every k-th cycle")
	n := fs.Int("n", 24, "grid points per axis per task")
	tasks := fs.Int("tasks", 1, "simulated MPI tasks")
	renderer := fs.String("renderer", "raytracer", "raytracer, rasterizer, or volume")
	size := fs.Int("size", 512, "image size")
	dev := fs.String("device", "cpu", "device profile: "+strings.Join(device.ProfileNames(), ", "))
	out := fs.String("out", "insitu_out", "output directory")
	web := fs.Int("web", 0, "stream images on this local port (0 = off)")
	_ = fs.Parse(args) // ExitOnError: flag itself exits on a bad flag or -h
	if *every < 1 || *tasks < 1 || *steps < 0 || *size < 1 {
		return fmt.Errorf("%w: -every %d -tasks %d -steps %d -size %d: want every, tasks and size >= 1, steps >= 0",
			errUsage, *every, *tasks, *steps, *size)
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	world := comm.NewWorld(*tasks)
	return world.Run(func(c *comm.Comm) error {
		s, err := sim.New(*proxy, *n, *tasks, c.Rank())
		if err != nil {
			return err
		}
		opts := conduit.NewNode()
		opts.Set("device", *dev)
		if *tasks > 1 {
			opts.SetExternal("mpi_comm", c)
		}
		if *web > 0 {
			opts.Set("web/port", *web)
		}
		sman, err := strawman.Open(opts)
		if err != nil {
			return err
		}
		defer sman.Close()

		data := conduit.NewNode()
		for cyc := 0; cyc < *steps; cyc++ {
			s.Step()
			if s.Cycle()%*every != 0 {
				continue
			}
			s.Publish(data)
			if err := sman.Publish(data); err != nil {
				return err
			}
			actions := conduit.NewNode()
			add := actions.Append()
			add.Set("action", "add_plot")
			add.Set("var", s.PrimaryField())
			add.Set("renderer", *renderer)
			actions.Append().Set("action", "draw_plots")
			save := actions.Append()
			save.Set("action", "save_image")
			save.Set("fileName", filepath.Join(*out, fmt.Sprintf("%s_%04d", *proxy, s.Cycle())))
			save.Set("width", *size)
			save.Set("height", *size)
			if err := sman.Execute(actions); err != nil {
				return err
			}
			if c.Rank() == 0 {
				fmt.Fprintf(stdout, "cycle %4d  t=%.5f  vis=%.3fs\n",
					s.Cycle(), s.Time(), sman.LastVisTime.Seconds())
			}
		}
		return nil
	})
}
