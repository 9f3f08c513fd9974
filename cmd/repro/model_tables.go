package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"insitu/internal/core"
	"insitu/internal/scenario"
	"insitu/internal/study"
)

// corpusGroups lists the architectures and renderers present in a
// measured corpus, each sorted — the dynamic axis the model tables
// iterate instead of a hardcoded renderer list, so newly registered
// scenario backends appear in every table automatically.
func corpusGroups(samples []core.Sample) (archs []string, renderers []core.Renderer) {
	seenA := map[string]bool{}
	seenR := map[core.Renderer]bool{}
	for _, s := range samples {
		if !seenA[s.Arch] {
			seenA[s.Arch] = true
			archs = append(archs, s.Arch)
		}
		if !seenR[s.Renderer] {
			seenR[s.Renderer] = true
			renderers = append(renderers, s.Renderer)
		}
	}
	sort.Strings(archs)
	sort.Slice(renderers, func(i, j int) bool { return renderers[i] < renderers[j] })
	return archs, renderers
}

// corpusCache lazily runs the model study once per repro invocation.
type corpusCache struct {
	once sync.Once
	rows []study.Row
	err  error
}

func (c *corpusCache) get(e *env) ([]study.Row, error) {
	c.once.Do(func() {
		plan := study.Plan(e.short)
		fmt.Fprintf(stdout, "running the model study (%d configurations, %d worker(s))...\n", len(plan), max(e.parallel, 1))
		c.rows, c.err = study.RunContext(context.Background(), plan, study.Options{
			Workers:  e.parallel,
			Progress: study.LogProgress(os.Stdout),
		})
		if c.err == nil {
			path := filepath.Join(e.outDir, "study_corpus.csv")
			if f, err := os.Create(path); err == nil {
				_ = study.WriteCSV(f, c.rows)
				f.Close()
				fmt.Fprintf(stdout, "corpus written to %s\n", path)
			}
		}
	})
	return c.rows, c.err
}

func init() {
	register("table12", "R² values for the six performance models", table12R2)
	register("table13", "3-fold cross-validation accuracy percentiles", table13CV)
	register("fig11", "cross-validation error scatter series (CSV)", fig11Errors)
	register("fig12", "compositing time histogram (tasks x pixels)", fig12Compositing)
	register("fig13", "compositing cross-validation error", fig13CompErrors)
	register("table14", "compositing model accuracy percentiles", table14CompAccuracy)
	register("table15", "held-out kernel set (cpu-scalar profile): train small, predict at scale", table15HeldOut)
	register("table16", "mapping validation: predicted vs observed inputs", table16Mapping)
	register("table17", "experimentally determined model coefficients", table17Coefficients)
	register("fig14", "images renderable in a 60 s budget vs image size", fig14Budget)
	register("fig15", "ray tracing vs rasterization predicted-time ratios", fig15Compare)
}

func table12R2(e *env) error {
	rows, err := e.corpus.get(e)
	if err != nil {
		return err
	}
	samples := study.Samples(rows)
	set, err := core.FitModels(samples)
	if err != nil {
		return err
	}
	archs, renderers := corpusGroups(samples)
	printHeader(append([]string{"renderer"}, archs...)...)
	for _, r := range renderers {
		row := cell(string(r))
		for _, arch := range archs {
			m, ok := set.Models[core.Key(arch, r)]
			if !ok {
				row += cell("n/a")
				continue
			}
			row += cell(fmt.Sprintf("%.4f", m.Fit.R2))
		}
		fmt.Fprintln(stdout, row)
	}
	return nil
}

func table13CV(e *env) error {
	rows, err := e.corpus.get(e)
	if err != nil {
		return err
	}
	samples := study.Samples(rows)
	archs, renderers := corpusGroups(samples)
	printHeader("arch", "renderer", "<=50%", "<=25%", "<=10%", "<=5%", "avg %")
	for _, arch := range archs {
		for _, r := range renderers {
			cv, err := core.CrossValidate(samples, arch, r, 3)
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, cell(arch)+cell(string(r))+
				cell(fmt.Sprintf("%.1f", 100*cv.WithinPct(50)))+
				cell(fmt.Sprintf("%.1f", 100*cv.WithinPct(25)))+
				cell(fmt.Sprintf("%.1f", 100*cv.WithinPct(10)))+
				cell(fmt.Sprintf("%.1f", 100*cv.WithinPct(5)))+
				cell(fmt.Sprintf("%.1f", cv.MeanAbsPct())))
		}
	}
	return nil
}

func fig11Errors(e *env) error {
	rows, err := e.corpus.get(e)
	if err != nil {
		return err
	}
	samples := study.Samples(rows)
	path := filepath.Join(e.outDir, "fig11_cv_errors.csv")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Fprintln(f, "arch,renderer,predicted_s,error_pct")
	archs, renderers := corpusGroups(samples)
	for _, arch := range archs {
		for _, r := range renderers {
			cv, err := core.CrossValidate(samples, arch, r, 3)
			if err != nil {
				return err
			}
			errs := cv.ErrorPct()
			for i := range errs {
				fmt.Fprintf(f, "%s,%s,%.6f,%.2f\n", arch, r, cv.Predicted[i], errs[i])
			}
		}
	}
	fmt.Fprintf(stdout, "wrote %s (error %% vs predicted time, one series per model)\n", path)
	return nil
}

func fig12Compositing(e *env) error {
	rows, err := e.corpus.get(e)
	if err != nil {
		return err
	}
	// Histogram buckets: tasks x pixel band.
	type key struct {
		tasks int
		band  int
	}
	sum := map[key]float64{}
	count := map[key]int{}
	for _, r := range rows {
		if r.Config.Tasks < 2 {
			continue
		}
		k := key{r.Config.Tasks, r.Config.ImageSize / 64 * 64}
		sum[k] += r.Sample.CompositeTime
		count[k]++
	}
	keys := make([]key, 0, len(sum))
	for k := range sum {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].tasks != keys[j].tasks {
			return keys[i].tasks < keys[j].tasks
		}
		return keys[i].band < keys[j].band
	})
	printHeader("tasks", "pixels~", "avg comp time")
	for _, k := range keys {
		fmt.Fprintln(stdout, cell(k.tasks)+cell(fmt.Sprintf("%d^2", k.band))+
			cell(fmt.Sprintf("%.5fs", sum[k]/float64(count[k]))))
	}
	return nil
}

func fig13CompErrors(e *env) error {
	rows, err := e.corpus.get(e)
	if err != nil {
		return err
	}
	cv, err := core.CrossValidateCompositing(study.Samples(rows), 3)
	if err != nil {
		return err
	}
	path := filepath.Join(e.outDir, "fig13_compositing_cv.csv")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Fprintln(f, "predicted_s,error_pct")
	errs := cv.ErrorPct()
	for i := range errs {
		fmt.Fprintf(f, "%.6f,%.2f\n", cv.Predicted[i], errs[i])
	}
	fmt.Fprintf(stdout, "wrote %s; mean abs error %.1f%%\n", path, cv.MeanAbsPct())
	return nil
}

func table14CompAccuracy(e *env) error {
	rows, err := e.corpus.get(e)
	if err != nil {
		return err
	}
	cv, err := core.CrossValidateCompositing(study.Samples(rows), 3)
	if err != nil {
		return err
	}
	printHeader("", "<=50%", "<=25%", "<=10%", "<=5%", "avg %")
	fmt.Fprintln(stdout, cell("compositing")+
		cell(fmt.Sprintf("%.1f", 100*cv.WithinPct(50)))+
		cell(fmt.Sprintf("%.1f", 100*cv.WithinPct(25)))+
		cell(fmt.Sprintf("%.1f", 100*cv.WithinPct(10)))+
		cell(fmt.Sprintf("%.1f", 100*cv.WithinPct(5)))+
		cell(fmt.Sprintf("%.1f", cv.MeanAbsPct())))
	return nil
}

// table15HeldOut is the Titan experiment: calibrate each model on a small
// number of samples from a configuration outside the main study (the
// cpu-scalar profile, a kernel set the serial+cpu study plan never
// measures), then predict a larger run and compare.
func table15HeldOut(e *env) error {
	trainN := 12
	bigN, bigTasks := 24, 8
	imgTrain := 128
	if e.short {
		trainN, bigN, bigTasks, imgTrain = 6, 16, 4, 96
	}
	const heldOut = "cpu-scalar"
	printHeader("renderer", "actual", "predicted", "diff %", "samples")
	for _, r := range scenario.Names() {
		simName := "cloverleaf"
		// Small calibration corpus.
		var train []study.Config
		for i := 0; i < trainN; i++ {
			train = append(train, study.Config{
				Arch: heldOut, Renderer: r, Sim: simName,
				Tasks: 1 + i%2, ImageSize: imgTrain + 16*(i%4), N: 10 + 2*(i%4),
				Frames: 2,
			})
		}
		rows, err := study.Run(train, nil)
		if err != nil {
			return err
		}
		set, err := core.FitModels(study.Samples(rows))
		if err != nil {
			return err
		}
		m := set.Models[core.Key(heldOut, r)]

		// The large run.
		big, err := study.RunConfig(study.Config{
			Arch: heldOut, Renderer: r, Sim: simName,
			Tasks: bigTasks, ImageSize: 2 * imgTrain, N: bigN, Frames: 2,
		})
		if err != nil {
			return err
		}
		pred := m.Predict(big.Sample.In)
		actual := big.Sample.RenderTime
		fmt.Fprintln(stdout, cell(string(r))+
			cell(fmt.Sprintf("%.4fs", actual))+
			cell(fmt.Sprintf("%.4fs", pred))+
			cell(fmt.Sprintf("%+.1f%%", 100*(pred-actual)/actual))+
			cell(len(rows)))
	}
	return nil
}

func table16Mapping(e *env) error {
	rows, err := e.corpus.get(e)
	if err != nil {
		return err
	}
	samples := study.Samples(rows)
	set, err := core.FitModels(samples)
	if err != nil {
		return err
	}
	mp := core.CalibrateMapping(samples)
	fmt.Fprintf(stdout, "calibrated mapping: fill=%.3f sprBase=%.1f\n\n", mp.FillFraction, mp.SPRBase)
	// Pick one configuration per renderer/arch pairing, as the paper does.
	seen := map[string]bool{}
	printHeader("test", "arch/renderer", "AP obs", "AP map", "t actual", "t observed-in", "t mapped-in")
	i := 0
	for _, row := range rows {
		if row.Config.Tasks < 2 {
			continue
		}
		k := core.Key(row.Config.Arch, row.Config.Renderer)
		if seen[k] {
			continue
		}
		seen[k] = true
		m := set.Models[k]
		mapped := mp.Map(core.Config{
			N: row.Config.N, Tasks: row.Config.Tasks,
			Width: row.Config.ImageSize, Height: row.Config.ImageSize,
			Renderer: row.Config.Renderer,
		})
		predObserved := m.Predict(row.Sample.In)
		predMapped := m.Predict(mapped)
		fmt.Fprintln(stdout, cell(i)+cell(k)+
			cell(fmt.Sprintf("%.0f", row.Sample.In.AP))+
			cell(fmt.Sprintf("%.0f", mapped.AP))+
			cell(fmt.Sprintf("%.4fs", row.Sample.RenderTime))+
			cell(fmt.Sprintf("%.4fs", predObserved))+
			cell(fmt.Sprintf("%.4fs", predMapped)))
		i++
		if i >= 6 {
			break
		}
	}
	return nil
}

func table17Coefficients(e *env) error {
	rows, err := e.corpus.get(e)
	if err != nil {
		return err
	}
	set, err := core.FitModels(study.Samples(rows))
	if err != nil {
		return err
	}
	printHeader("technique", "arch", "c0", "c1", "c2", "c3", "c4")
	keys := make([]string, 0, len(set.Models))
	for k := range set.Models {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		m := set.Models[k]
		row := cell(string(m.Renderer)) + cell(m.Arch)
		for _, c := range m.Coefficients() {
			row += cell(fmt.Sprintf("%.3g", c))
		}
		fmt.Fprintln(stdout, row)
	}
	if set.Compositing != nil {
		row := cell("compositing") + cell("all")
		for _, c := range set.Compositing.Coefficients() {
			row += cell(fmt.Sprintf("%.3g", c))
		}
		fmt.Fprintln(stdout, row)
	}
	return nil
}

func fig14Budget(e *env) error {
	rows, err := e.corpus.get(e)
	if err != nil {
		return err
	}
	samples := study.Samples(rows)
	set, err := core.FitModels(samples)
	if err != nil {
		return err
	}
	mp := core.CalibrateMapping(samples)
	sizes := []int{256, 512, 768, 1024, 1536, 2048, 3072, 4096}
	n, tasks := 32, 32
	fmt.Fprintf(stdout, "images renderable in 60 s (N=%d per task, %d tasks):\n\n", n, tasks)
	archs, renderers := corpusGroups(samples)
	printHeader(append([]string{"arch/renderer"}, intsToStrings(sizes)...)...)
	for _, arch := range archs {
		for _, r := range renderers {
			pts, err := set.ImagesInBudget(arch, r, mp, n, tasks, 60, sizes)
			if err != nil {
				return err
			}
			label := string(r)
			if len(label) > 10 {
				label = label[:10]
			}
			row := cell(arch + "/" + label)
			for _, p := range pts {
				row += cell(fmt.Sprintf("%.0f", p.Images))
			}
			fmt.Fprintln(stdout, row)
		}
	}
	return nil
}

func fig15Compare(e *env) error {
	rows, err := e.corpus.get(e)
	if err != nil {
		return err
	}
	samples := study.Samples(rows)
	set, err := core.FitModels(samples)
	if err != nil {
		return err
	}
	mp := core.CalibrateMapping(samples)
	imageSizes := []int{384, 768, 1152, 1536, 1920, 2304, 3072, 4096}
	dataSizes := []int{100, 200, 300, 400, 500}
	cells, err := set.CompareRTvsRaster("cpu", mp, 32, 100, imageSizes, dataSizes)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, "predicted time ratio raytrace/raster (<1: ray tracing faster):")
	fmt.Fprintln(stdout)
	printHeader(append([]string{"N \\ px"}, intsToStrings(imageSizes)...)...)
	for _, n := range dataSizes {
		row := cell(n)
		for _, size := range imageSizes {
			for _, c := range cells {
				if c.N == n && c.ImageSize == size {
					if !c.Finite {
						row += cell("n/a")
					} else {
						row += cell(fmt.Sprintf("%.2f", c.Ratio))
					}
				}
			}
		}
		fmt.Fprintln(stdout, row)
	}
	// Report the crossover summary the paper highlights.
	rtWins, rastWins := 0, 0
	extreme := 0.0
	for _, c := range cells {
		if !c.Finite {
			continue
		}
		if c.Ratio < 1 {
			rtWins++
			extreme = math.Max(extreme, 1/c.Ratio)
		} else {
			rastWins++
		}
	}
	fmt.Fprintf(stdout, "\nray tracing wins %d cells, rasterization %d; ray tracing's best advantage %.1fx\n",
		rtWins, rastWins, extreme)
	return nil
}

func intsToStrings(v []int) []string {
	out := make([]string, len(v))
	for i, x := range v {
		out[i] = fmt.Sprintf("%d", x)
	}
	return out
}
