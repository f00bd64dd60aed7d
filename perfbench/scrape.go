package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
)

// scrapeData is one reading of pfg-serve's /metricsz samples (keyed by
// series, e.g. `pfg_tick_stage_ns_sum{stage="admit"}`) and /statsz
// top-level numeric fields.
type scrapeData struct {
	metrics, stats map[string]float64
}

// scrapeDiff is the change between two readings.
type scrapeDiff scrapeData

func scrape(c *http.Client, base string) (*scrapeData, error) {
	st, b, err := do(c, http.MethodGet, base+"/metricsz", nil)
	if err != nil || st != http.StatusOK {
		return nil, fmt.Errorf("GET /metricsz: status %d, %v", st, err)
	}
	d := &scrapeData{metrics: map[string]float64{}, stats: map[string]float64{}}
	for _, line := range strings.Split(string(b), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("/metricsz line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("/metricsz line %q: %v", line, err)
		}
		d.metrics[line[:i]] = v
	}
	st, b, err = do(c, http.MethodGet, base+"/statsz", nil)
	if err != nil || st != http.StatusOK {
		return nil, fmt.Errorf("GET /statsz: status %d, %v", st, err)
	}
	var fields map[string]any
	if err := json.Unmarshal(b, &fields); err != nil {
		return nil, fmt.Errorf("GET /statsz: %v", err)
	}
	for k, v := range fields {
		if f, ok := v.(float64); ok {
			d.stats[k] = f
		}
	}
	return d, nil
}

func (a *scrapeData) diff(b *scrapeData) *scrapeDiff {
	d := &scrapeDiff{metrics: map[string]float64{}, stats: map[string]float64{}}
	for k, v := range b.metrics {
		d.metrics[k] = v - a.metrics[k]
	}
	for k, v := range b.stats {
		d.stats[k] = v - a.stats[k]
	}
	return d
}

// hist is the change in a histogram series' sum and count.
func (d *scrapeDiff) hist(family, labels string) (sum, count float64) {
	if labels != "" {
		labels = "{" + labels + "}"
	}
	return d.metrics[family+"_sum"+labels], d.metrics[family+"_count"+labels]
}

// stat is the change in a /statsz counter.
func (d *scrapeDiff) stat(field string) float64 { return d.stats[field] }
