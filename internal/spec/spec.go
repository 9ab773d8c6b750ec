// Package spec parses and validates cluster specifications — the JSON
// surface through which operators describe their blade-server groups to
// the CLI tools — and provides a registry of built-in systems (the
// paper's example and every figure group) addressable by name.
package spec

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"repro/internal/experiments"
	"repro/internal/failure"
	"repro/internal/model"
)

// ServerSpec describes one blade server. Exactly one of SpecialRate or
// PreloadFraction supplies the dedicated load: an absolute arrival rate
// λ″, or a fraction y of the server's capacity (λ″ = y·m·s/r̄), the
// form the paper's experiments use.
type ServerSpec struct {
	// Name is an optional operator-facing label used in diagnostics.
	Name string `json:"name,omitempty"`
	// Size is the number of blades m.
	Size int `json:"size"`
	// Speed is the per-blade speed s.
	Speed float64 `json:"speed"`
	// SpecialRate is λ″ (absolute). Mutually exclusive with
	// PreloadFraction.
	SpecialRate float64 `json:"special_rate,omitempty"`
	// PreloadFraction is y ∈ [0, 1): λ″ = y·m·s/r̄. Mutually exclusive
	// with SpecialRate.
	PreloadFraction float64 `json:"preload_fraction,omitempty"`
	// MTBF/MTTR, when both set, describe the server's up/down process
	// (mean time between failures / to repair) for failure-aware
	// simulation and planning. Omitted means the server never fails.
	MTBF float64 `json:"mtbf,omitempty"`
	MTTR float64 `json:"mttr,omitempty"`
	// FailBlades, when positive, limits each failure to that many
	// blades instead of the whole server. Requires MTBF/MTTR.
	FailBlades int `json:"fail_blades,omitempty"`
}

// failureParams assembles the server's failure model.
func (s ServerSpec) failureParams() failure.Params {
	return failure.Params{MTBF: s.MTBF, MTTR: s.MTTR, Blades: s.FailBlades}
}

// ClusterSpec is the top-level document.
type ClusterSpec struct {
	// Name is an optional label.
	Name string `json:"name,omitempty"`
	// TaskSize is r̄ (defaults to 1 when omitted).
	TaskSize float64 `json:"task_size,omitempty"`
	// Servers lists the group.
	Servers []ServerSpec `json:"servers"`
}

// Parse decodes a JSON cluster spec, rejecting unknown fields so typos
// surface instead of silently defaulting, and anything but white space
// after the spec, such as a second spec pasted into the same file.
func Parse(r io.Reader) (*ClusterSpec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s ClusterSpec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("spec: decoding: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("spec: data after the cluster spec")
	}
	return &s, nil
}

// label names a server for diagnostics.
func (s ServerSpec) label(i int) string {
	if s.Name != "" {
		return fmt.Sprintf("server %d (%q)", i+1, s.Name)
	}
	return fmt.Sprintf("server %d", i+1)
}

// Build validates the spec and assembles the model group.
func (c *ClusterSpec) Build() (*model.Group, error) {
	if len(c.Servers) == 0 {
		return nil, fmt.Errorf("spec: no servers")
	}
	taskSize := c.TaskSize
	if taskSize == 0 { //bladelint:allow floateq -- zero means the JSON field was omitted, an exact default
		taskSize = 1
	}
	if taskSize < 0 || math.IsNaN(taskSize) || math.IsInf(taskSize, 0) {
		return nil, fmt.Errorf("spec: task_size %g must be positive", taskSize)
	}
	servers := make([]model.Server, len(c.Servers))
	for i, ss := range c.Servers {
		if ss.SpecialRate != 0 && ss.PreloadFraction != 0 { //bladelint:allow floateq -- zero means the JSON field was omitted, an exact default
			return nil, fmt.Errorf("spec: %s sets both special_rate and preload_fraction", ss.label(i))
		}
		if math.IsNaN(ss.PreloadFraction) || math.IsInf(ss.PreloadFraction, 0) ||
			ss.PreloadFraction < 0 || ss.PreloadFraction >= 1 {
			if ss.PreloadFraction != 0 { //bladelint:allow floateq -- zero means the JSON field was omitted, an exact default
				return nil, fmt.Errorf("spec: %s preload_fraction %g must be in [0, 1)", ss.label(i), ss.PreloadFraction)
			}
		}
		rate := ss.SpecialRate
		if ss.PreloadFraction > 0 {
			rate = ss.PreloadFraction * float64(ss.Size) * ss.Speed / taskSize
		}
		servers[i] = model.Server{Size: ss.Size, Speed: ss.Speed, SpecialRate: rate}
		if err := servers[i].Validate(); err != nil {
			return nil, fmt.Errorf("spec: %s: %w", ss.label(i), err)
		}
		// A derived rate can be non-finite even when every input is (a
		// huge size times a large speed overflows); so can capacity.
		if cap := servers[i].Capacity(taskSize); math.IsInf(cap, 0) || math.IsNaN(cap) {
			return nil, fmt.Errorf("spec: %s capacity m·s/r̄ = %g is not finite", ss.label(i), cap)
		}
		if err := ss.failureParams().Validate(); err != nil {
			return nil, fmt.Errorf("spec: %s: %w", ss.label(i), err)
		}
		if ss.FailBlades > ss.Size {
			return nil, fmt.Errorf("spec: %s fail_blades %d exceeds size %d", ss.label(i), ss.FailBlades, ss.Size)
		}
	}
	g := &model.Group{Servers: servers, TaskSize: taskSize}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	return g, nil
}

// FailurePlan returns the cluster's failure model, aligned with the
// built group's server order, or nil when no server declares one. Call
// after Build has validated the spec.
func (c *ClusterSpec) FailurePlan() *failure.Plan {
	params := make([]failure.Params, len(c.Servers))
	enabled := false
	for i, ss := range c.Servers {
		params[i] = ss.failureParams()
		if params[i].Enabled() {
			enabled = true
		}
	}
	if !enabled {
		return nil
	}
	return &failure.Plan{Stations: params}
}

// Warnings reports non-fatal conditions an operator should see: servers
// preloaded beyond 90 % of capacity (almost no room for generic work),
// extreme speed ratios (> 20×) that make naive policies dangerous, and
// servers expected to be down more than 5 % of the time.
func (c *ClusterSpec) Warnings() []string {
	g, err := c.Build()
	if err != nil {
		return nil
	}
	var warns []string
	minSpeed, maxSpeed := math.Inf(1), math.Inf(-1)
	for i, s := range g.Servers {
		if y := s.SpecialUtilization(g.TaskSize); y > 0.9 {
			warns = append(warns, fmt.Sprintf("%s is preloaded to %.0f%% of capacity", c.Servers[i].label(i), y*100))
		}
		minSpeed = math.Min(minSpeed, s.Speed)
		maxSpeed = math.Max(maxSpeed, s.Speed)
		if a := c.Servers[i].failureParams().Availability(); a < 0.95 {
			warns = append(warns, fmt.Sprintf("%s expected down %.1f%% of the time (mtbf %g, mttr %g)",
				c.Servers[i].label(i), (1-a)*100, c.Servers[i].MTBF, c.Servers[i].MTTR))
		}
	}
	if maxSpeed/minSpeed > 20 {
		warns = append(warns, fmt.Sprintf("speed ratio %.0f× across servers; state-oblivious policies other than the optimal split will behave poorly", maxSpeed/minSpeed))
	}
	return warns
}

// Builtin returns a named built-in system:
//
//	"li-example"       — the paper's Example 1/2 group (Tables 1–2)
//	"<figID>:<k>"      — series k (1-based) of a figure, e.g. "fig12:1"
//
// BuiltinNames lists everything available.
func Builtin(name string) (*model.Group, error) {
	if name == "li-example" {
		return model.LiExample1Group(), nil
	}
	id, idx, ok := strings.Cut(name, ":")
	if !ok {
		return nil, fmt.Errorf("spec: unknown builtin %q (see BuiltinNames)", name)
	}
	e, err := experiments.ByID(id)
	if err != nil {
		return nil, fmt.Errorf("spec: builtin %q: %w", name, err)
	}
	k, err := strconv.Atoi(idx)
	if err != nil || k < 1 || k > len(e.Series) {
		return nil, fmt.Errorf("spec: builtin %q: series index must be 1..%d", name, len(e.Series))
	}
	return e.Series[k-1].Group, nil
}

// BuiltinNames lists every name Builtin accepts.
func BuiltinNames() []string {
	names := []string{"li-example"}
	for _, e := range experiments.All() {
		if e.Kind != experiments.Figure {
			continue
		}
		for k := range e.Series {
			names = append(names, fmt.Sprintf("%s:%d", e.ID, k+1))
		}
	}
	return names
}
