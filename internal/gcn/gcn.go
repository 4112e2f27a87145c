// Package gcn trains the structural feature of CEAFF (§IV-A): two 2-layer
// graph convolutional networks, one per KG, with shared layer weights W1
// and W2, aligned into one space by a margin-based ranking loss over seed
// entity pairs (Eq. 1 of the paper).
//
// Forward pass per KG (Â is the normalized adjacency from kg.Adjacency):
//
//	H = ReLU(Â · X · W1)
//	Z = Â · H · W2
//
// As in GCN-Align, the input feature matrix X is itself a trainable
// parameter, initialized from a truncated normal with L2-normalized rows;
// the two GCNs share W1 and W2 but keep separate X. The loss is
//
//	L = Σ_{(u,v)∈S} Σ_{(u',v')∈S'} [ ‖z_u − z_v‖₁ − ‖z_u' − z_v'‖₁ + γ ]₊
//
// with S' the negative pairs obtained by corrupting one side of each seed
// with a uniformly sampled entity. Optimization is plain SGD as in the
// paper, with an optional Adam mode for faster CPU convergence.
package gcn

import (
	"context"
	"fmt"
	"math"

	"ceaff/internal/align"
	"ceaff/internal/kg"
	"ceaff/internal/mat"
	"ceaff/internal/obs"
	"ceaff/internal/rng"
	"ceaff/internal/robust"
)

// FaultLoss is the fault-injection site fired once per training epoch;
// arming it corrupts that epoch's loss to NaN, exercising the divergence
// recovery path end to end.
const FaultLoss = "gcn.loss"

// Optimizer selects the parameter update rule.
type Optimizer int

const (
	// SGD is plain stochastic gradient descent, as specified in §IV-A.
	SGD Optimizer = iota
	// Adam converges markedly faster on CPU-scaled problems and is the
	// practical default for the experiment harness.
	Adam
)

// Config controls training. The zero value is not usable; start from
// DefaultConfig.
type Config struct {
	Dim          int       // ds: embedding dimensionality of every layer
	Layers       int       // number of GCN layers (paper: 2)
	Epochs       int       // full-batch epochs
	LearningRate float64   // step size
	Margin       float64   // γ in Eq. 1
	Negatives    int       // negative pairs per positive (paper: 5)
	Optimizer    Optimizer // SGD (paper) or Adam
	Seed         uint64    // PRNG seed for init and negative sampling

	// Progress, if non-nil, receives (epoch, mean loss) once per epoch.
	Progress func(epoch int, loss float64)

	// InitX1/InitX2, if non-nil, replace the random initialization of the
	// trainable input features — e.g. entity-name embeddings, as in the
	// RDGCN/GM-Align family. Row counts must match the KG entity counts;
	// column counts must equal Dim.
	InitX1, InitX2 *mat.Dense

	// FreezeX keeps the input features fixed during training (only the
	// shared layer weights learn). Used with InitX to preserve externally
	// provided signals such as name embeddings.
	FreezeX bool

	// HardNegativeEvery, when positive, refreshes per-seed hard-negative
	// pools every that many epochs: negatives are then drawn from the
	// entities currently nearest each seed member instead of uniformly —
	// GCN-Align's nearest-neighbour sampling. Uniform corruption goes
	// stale once random pairs satisfy the margin; mining keeps the ranking
	// loss active. 0 disables mining.
	HardNegativeEvery int
	// HardNegativePool is the per-entity pool size for mining (default 10
	// when mining is enabled).
	HardNegativePool int

	// SeedSharedInit, when true (the default config), initializes the two
	// trainable feature matrices so that each seed pair starts from the
	// SAME random vector, with all other rows damped by NonSeedScale.
	// Rationale: with independent random init at CPU-scale dimensions, the
	// unconstrained rows of X inject noise whose propagated magnitude
	// drowns the shared-seed signal (the paper's ds = 300 buys
	// signal-to-noise that ds ≈ 48 does not). Sharing the seed vectors and
	// damping the rest restores the anchor-propagation signal before the
	// first gradient step. Ignored when InitX1/InitX2 are provided.
	SeedSharedInit bool
	// NonSeedScale is the initial norm of non-seed feature rows under
	// SeedSharedInit (default 0.1).
	NonSeedScale float64

	// IdentityWeights initializes the layer weight matrices to the
	// identity instead of Glorot noise, so the untrained network computes
	// pure (ReLU-gated) propagation Â^L·X. GCN-Align's released
	// implementation does exactly this for its structural channel; random
	// W only scrambles a signal that propagation already exposes.
	IdentityWeights bool

	// --- robustness (DESIGN.md §8) ---

	// MaxGradNorm, when positive, treats an epoch whose total gradient
	// Frobenius norm exceeds it as diverged (on top of the always-on
	// NaN/Inf checks on loss and gradient norm). The hinge subgradients
	// here are sign vectors, so healthy norms stay far below the default.
	MaxGradNorm float64
	// DivergenceRetries bounds automatic divergence recovery: a NaN/Inf
	// loss or exploding gradient rolls training back to the last
	// checkpoint with a halved learning rate and a deterministically
	// re-split negative-sampling stream, at most this many times before
	// Train returns an error. 0 disables recovery (first divergence
	// errors out).
	DivergenceRetries int
	// CheckpointEvery, when positive, captures a full training-state
	// checkpoint every that many completed epochs (an epoch-0 snapshot is
	// always kept as the recovery floor).
	CheckpointEvery int
	// OnCheckpoint, if non-nil, receives a deep copy of every captured
	// checkpoint — e.g. to persist it for interrupt/resume.
	OnCheckpoint func(*Checkpoint)
	// Resume, if non-nil, restores training from the checkpoint instead
	// of initializing fresh; the run continues bit-for-bit as if never
	// interrupted. The checkpoint must be shape-compatible with the KGs
	// and this Config.
	Resume *Checkpoint

	// ForceSerial routes training through the retained pre-parallel
	// reference paths: serial SpMM (CSR.NaiveMulDense/NaiveTMulDense) and
	// the unsharded loss accumulation. The parallel trainer is bit-identical
	// to this path — tests and the TrainEpochSerial* benchmarks use the flag
	// to pin that equivalence and to measure the parallel speedup; it is
	// never the right setting for production runs.
	ForceSerial bool
}

// DefaultConfig mirrors the paper's settings (§VII-A) adapted for CPU
// training: ds 300→48, epochs 300→60, γ=3 and 5 negatives unchanged, SGD
// as in the paper. Two adaptations compensate for the reduced dimension
// (see DESIGN.md §2): seed pairs share their initial feature vector with
// damped non-seed rows, and layer weights start at identity as in
// GCN-Align's released structural channel — both restore the
// anchor-propagation signal-to-noise that ds = 300 buys the original.
func DefaultConfig() Config {
	return Config{
		Dim:               48,
		Layers:            2,
		Epochs:            60,
		LearningRate:      1e-4,
		Margin:            3,
		Negatives:         5,
		Optimizer:         SGD,
		Seed:              1,
		HardNegativeEvery: 10,
		HardNegativePool:  10,
		SeedSharedInit:    true,
		NonSeedScale:      0.1,
		IdentityWeights:   true,
		MaxGradNorm:       1e8,
		DivergenceRetries: 2,
		CheckpointEvery:   10,
	}
}

// Model holds the trained structural embeddings of both KGs, row-indexed by
// entity ID.
type Model struct {
	Z1, Z2 *mat.Dense
}

// SimilarityMatrix returns the structural similarity matrix Ms between the
// given source and target entities: cosine similarity of their embeddings.
func (m *Model) SimilarityMatrix(src, tgt []kg.EntityID) *mat.Dense {
	return mat.CosineSim(gather(m.Z1, src), gather(m.Z2, tgt))
}

// CenteredSimilarityMatrix is SimilarityMatrix after subtracting the
// selected embeddings' common mean vector. Graph convolution smooths all
// embeddings toward a shared direction, which inflates raw cosines (means
// around 0.8) and trips fusion's θ1 damping on scores that are high for
// geometric rather than evidential reasons; centering removes the shared
// component and restores a discriminative, zero-centered similarity scale.
func (m *Model) CenteredSimilarityMatrix(src, tgt []kg.EntityID) *mat.Dense {
	a := gather(m.Z1, src)
	b := gather(m.Z2, tgt)
	dim := a.Cols
	mean := make([]float64, dim)
	for i := 0; i < a.Rows; i++ {
		for j, v := range a.Row(i) {
			mean[j] += v
		}
	}
	for i := 0; i < b.Rows; i++ {
		for j, v := range b.Row(i) {
			mean[j] += v
		}
	}
	n := float64(a.Rows + b.Rows)
	if n == 0 {
		return mat.CosineSim(a, b)
	}
	for j := range mean {
		mean[j] /= n
	}
	for i := 0; i < a.Rows; i++ {
		r := a.Row(i)
		for j := range r {
			r[j] -= mean[j]
		}
	}
	for i := 0; i < b.Rows; i++ {
		r := b.Row(i)
		for j := range r {
			r[j] -= mean[j]
		}
	}
	return mat.CosineSim(a, b)
}

func gather(z *mat.Dense, ids []kg.EntityID) *mat.Dense {
	out := mat.NewDense(len(ids), z.Cols)
	for i, id := range ids {
		copy(out.Row(i), z.Row(int(id)))
	}
	return out
}

// graph bundles per-KG training state. The forward pass stores, per layer
// l, the propagated input q[l] = Â·h_l and the pre-activation
// pre[l] = q[l]·W_l; hidden layers apply ReLU, the output layer is linear.
//
// The forward buffers belong to the graph for the whole run: the first pass
// allocates them and every later pass overwrites them in place, so an epoch
// allocates no embedding-sized matrix of its own (DESIGN.md §18).
type graph struct {
	adj *mat.CSR
	x   *mat.Dense // trainable input features
	n   int

	q   []*mat.Dense // per-layer Â·input
	pre []*mat.Dense // per-layer pre-activation
	act []*mat.Dense // per hidden layer: ReLU(pre[l]), the next layer's input
	z   *mat.Dense   // final embeddings: pre[last], overwritten by the next pass
}

// Train learns structural embeddings for g1 and g2 aligned through the seed
// pairs. It returns an error for unusable configurations rather than
// panicking, since configs may come from CLI flags.
func Train(g1, g2 *kg.KG, seeds []align.Pair, cfg Config) (*Model, error) {
	return TrainContext(context.Background(), g1, g2, seeds, cfg)
}

// TrainContext is Train with cooperative cancellation: ctx is checked at
// every epoch boundary, and a done context stops training within one epoch,
// returning ctx's error (errors.Is-compatible with context.Canceled /
// context.DeadlineExceeded) without leaking goroutines.
//
// Robustness semantics (see DESIGN.md §8):
//   - Numeric health is checked every epoch before the optimizer step: a
//     NaN/Inf loss, a NaN/Inf gradient norm, or a gradient norm above
//     cfg.MaxGradNorm counts as divergence, and the poisoned gradients are
//     never applied.
//   - Divergence triggers bounded recovery: roll back to the last
//     checkpoint, halve the learning rate, re-split the negative-sampling
//     stream deterministically, and continue — at most
//     cfg.DivergenceRetries times before erroring out.
//   - cfg.CheckpointEvery/OnCheckpoint/Resume give epoch-granular
//     interrupt/resume; an uninterrupted run and a resumed run produce
//     identical models.
func TrainContext(ctx context.Context, g1, g2 *kg.KG, seeds []align.Pair, cfg Config) (*Model, error) {
	if cfg.Dim <= 0 || cfg.Epochs < 0 || cfg.Negatives <= 0 || cfg.LearningRate <= 0 {
		return nil, fmt.Errorf("gcn: invalid config %+v", cfg)
	}
	if len(seeds) == 0 {
		return nil, fmt.Errorf("gcn: no seed pairs")
	}
	if g1.NumEntities() == 0 || g2.NumEntities() == 0 {
		return nil, fmt.Errorf("gcn: empty KG")
	}
	for _, p := range seeds {
		if int(p.U) >= g1.NumEntities() || int(p.V) >= g2.NumEntities() || p.U < 0 || p.V < 0 {
			return nil, fmt.Errorf("gcn: seed pair %+v out of range", p)
		}
	}
	t, err := newTrainer(g1, g2, seeds, cfg)
	if err != nil {
		return nil, err
	}
	ctx, span := obs.StartSpan(ctx, "gcn.train")
	defer span.End()
	return t.run(ctx)
}

// trainer bundles the mutable training state so that checkpoint capture,
// restore and divergence recovery operate on one coherent snapshot.
type trainer struct {
	cfg    Config
	seeds  []align.Pair
	ga, gb *graph

	weights []*mat.Dense
	opt     *optState
	negSrc  *rng.Source
	pools   *negPools

	epoch   int     // completed epochs
	lr      float64 // effective learning rate (halved by recovery)
	retries int     // divergence recoveries consumed

	last *Checkpoint // most recent checkpoint; never nil after init
}

func newTrainer(g1, g2 *kg.KG, seeds []align.Pair, cfg Config) (*trainer, error) {
	layers := cfg.Layers
	if layers <= 0 {
		layers = 2
	}
	t := &trainer{cfg: cfg, seeds: seeds, lr: cfg.LearningRate}
	t.ga = &graph{adj: g1.Adjacency(), n: g1.NumEntities()}
	t.gb = &graph{adj: g2.Adjacency(), n: g2.NumEntities()}

	if cfg.Resume != nil {
		if err := cfg.Resume.compatible(cfg, t.ga.n, t.gb.n); err != nil {
			return nil, err
		}
		t.restore(cfg.Resume)
		return t, nil
	}

	s := rng.New(cfg.Seed)
	x1, err := chooseInit(cfg.InitX1, t.ga.n, cfg.Dim, s.Split())
	if err != nil {
		return nil, err
	}
	x2, err := chooseInit(cfg.InitX2, t.gb.n, cfg.Dim, s.Split())
	if err != nil {
		return nil, err
	}
	if cfg.SeedSharedInit && cfg.InitX1 == nil && cfg.InitX2 == nil {
		applySeedSharedInit(x1, x2, seeds, cfg.NonSeedScale, s.Split())
	}
	t.ga.x, t.gb.x = x1, x2

	t.weights = make([]*mat.Dense, layers)
	for l := range t.weights {
		if cfg.IdentityWeights {
			t.weights[l] = identity(cfg.Dim)
		} else {
			t.weights[l] = glorot(cfg.Dim, cfg.Dim, s.Split())
		}
	}
	t.opt = newOptState(cfg, t.params())
	t.negSrc = s.Split()
	t.last = t.capture() // epoch-0 snapshot: the recovery floor
	return t, nil
}

// params lists the trainable matrices in optimizer order.
func (t *trainer) params() []*mat.Dense {
	params := append([]*mat.Dense{}, t.weights...)
	if !t.cfg.FreezeX {
		params = append(params, t.ga.x, t.gb.x)
	}
	return params
}

// capture deep-copies the full training state.
func (t *trainer) capture() *Checkpoint {
	ck := &Checkpoint{
		Epoch:        t.epoch,
		LearningRate: t.lr,
		Retries:      t.retries,
		Weights:      cloneMats(t.weights),
		X1:           t.ga.x.Clone(),
		X2:           t.gb.x.Clone(),
		OptM:         cloneMats(t.opt.m),
		OptV:         cloneMats(t.opt.v),
		OptT:         t.opt.t,
		NegState:     t.negSrc.State(),
	}
	if t.pools != nil {
		ck.Pool1 = clonePools(t.pools.pool1)
		ck.Pool2 = clonePools(t.pools.pool2)
	}
	return ck
}

// restore replaces the training state with a deep copy of ck.
func (t *trainer) restore(ck *Checkpoint) {
	t.epoch = ck.Epoch
	t.lr = ck.LearningRate
	t.retries = ck.Retries
	t.weights = cloneMats(ck.Weights)
	t.ga.x = ck.X1.Clone()
	t.gb.x = ck.X2.Clone()
	t.opt = newOptState(t.cfg, t.params())
	if t.cfg.Optimizer == Adam && ck.OptM != nil {
		t.opt.m = cloneMats(ck.OptM)
		t.opt.v = cloneMats(ck.OptV)
	}
	t.opt.t = ck.OptT
	t.negSrc = rng.Restore(ck.NegState)
	t.pools = nil
	if ck.Pool1 != nil || ck.Pool2 != nil {
		t.pools = &negPools{pool1: clonePools(ck.Pool1), pool2: clonePools(ck.Pool2)}
	}
	if t.last == nil {
		t.last = ck.Clone()
	}
}

// recover rolls back to the last checkpoint with a halved learning rate and
// a deterministically re-split negative stream. It returns a terminal error
// once the retry budget is spent.
func (t *trainer) recover(cause error) error {
	if t.retries >= t.cfg.DivergenceRetries {
		return fmt.Errorf("gcn: training diverged at epoch %d after %d recovery attempts: %w",
			t.epoch, t.retries, cause)
	}
	retries := t.retries + 1
	halvedLR := t.lr / 2
	t.restore(t.last)
	t.retries = retries
	t.lr = halvedLR
	// Re-split the negative-sampling stream as a pure function of the
	// master seed and the retry ordinal, so recovery stays bit-for-bit
	// deterministic while sampling different corruptions than the diverged
	// attempt.
	t.negSrc = rng.New(t.cfg.Seed ^ (0x9e3779b97f4a7c15 * uint64(retries))).Split()
	return nil
}

// run executes the epoch loop until cfg.Epochs complete, recovering from
// divergence along the way.
func (t *trainer) run(ctx context.Context) (*Model, error) {
	cfg := t.cfg
	reg := obs.Metrics(ctx)
	trainSpan := obs.SpanFrom(ctx)
	epochHist := reg.Histogram("gcn.epoch.seconds")
	for t.epoch < cfg.Epochs {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("gcn: training cancelled at epoch %d: %w", t.epoch, err)
		}
		epochSpan := trainSpan.StartChild("epoch")
		epochStart := epochHist.Time()
		epoch := t.epoch
		loss, err := t.step()
		if err != nil {
			epochSpan.End()
			epochStart()
			reg.Counter("gcn.divergences").Inc()
			if rerr := t.recover(err); rerr != nil {
				return nil, rerr
			}
			reg.Counter("gcn.recoveries").Inc()
			continue // re-run from the restored epoch
		}
		t.epoch++
		epochSpan.End()
		epochStart()
		reg.Counter("gcn.epochs").Inc()
		reg.Gauge("gcn.last_loss").Set(loss / float64(len(t.seeds)))

		if cfg.Progress != nil {
			cfg.Progress(epoch, loss/float64(len(t.seeds)))
		}
		if cfg.CheckpointEvery > 0 && t.epoch%cfg.CheckpointEvery == 0 && t.epoch < cfg.Epochs {
			t.last = t.capture()
			if cfg.OnCheckpoint != nil {
				cfg.OnCheckpoint(t.last.Clone())
			}
			reg.Counter("gcn.checkpoints").Inc()
		}
	}

	forwardMode(t.ga, t.weights, cfg.ForceSerial)
	forwardMode(t.gb, t.weights, cfg.ForceSerial)
	// The model takes the final pass's output buffers; the trainer ends
	// here, so nothing overwrites them afterwards.
	return &Model{Z1: t.ga.z, Z2: t.gb.z}, nil
}

// step runs one epoch at t.epoch: forward passes, optional hard-negative
// mining, loss, backward passes and — when the loss and gradients are
// healthy — the optimizer update. It returns the summed loss, or the health
// error that kept the update from being applied. Every epoch-local matrix is
// drawn from the scratch arena and returned to it before step returns.
func (t *trainer) step() (float64, error) {
	cfg := t.cfg
	forwardMode(t.ga, t.weights, cfg.ForceSerial)
	forwardMode(t.gb, t.weights, cfg.ForceSerial)

	if cfg.HardNegativeEvery > 0 && t.epoch%cfg.HardNegativeEvery == 0 && t.epoch > 0 {
		t.pools = mineNegatives(t.ga.z, t.gb.z, t.seeds, cfg.HardNegativePool)
	}

	gz1 := mat.GetDense(t.ga.n, cfg.Dim)
	gz2 := mat.GetDense(t.gb.n, cfg.Dim)
	lossFn := accumulateLoss
	if cfg.ForceSerial {
		lossFn = accumulateLossSerial
	}
	loss := lossFn(t.ga.z, t.gb.z, t.seeds, cfg, t.negSrc, t.pools, gz1, gz2)
	if robust.Fire(FaultLoss) != nil {
		loss = math.NaN() // injected numeric fault: corrupt the epoch loss
	}

	gwA, gx1 := backwardMode(t.ga, t.weights, gz1, cfg.ForceSerial)
	gwB, gx2 := backwardMode(t.gb, t.weights, gz2, cfg.ForceSerial)
	mat.PutDense(gz1) // backward never returns gz as a gradient
	mat.PutDense(gz2)
	grads := make([]*mat.Dense, 0, len(gwA)+2)
	for l, g := range gwA {
		g.AddInPlace(gwB[l])
		mat.PutDense(gwB[l])
		grads = append(grads, g)
	}
	grads = append(grads, gx1, gx2)
	params := grads
	if cfg.FreezeX {
		params = grads[:len(gwA)]
	}

	err := t.checkHealth(t.epoch, loss, params)
	if err == nil {
		t.opt.step(params, t.lr)
	}
	for _, g := range grads {
		mat.PutDense(g)
	}
	return loss, err
}

// checkHealth validates the epoch's loss and gradients before they are
// applied, so a numeric blow-up never reaches the parameters.
func (t *trainer) checkHealth(epoch int, loss float64, grads []*mat.Dense) error {
	if err := robust.CheckFinite(fmt.Sprintf("gcn epoch %d loss", epoch), loss); err != nil {
		return err
	}
	var sq float64
	for _, g := range grads {
		n := g.FrobeniusNorm()
		sq += n * n
	}
	return robust.CheckGradNorm(fmt.Sprintf("gcn epoch %d gradient", epoch), math.Sqrt(sq), t.cfg.MaxGradNorm)
}

// chooseInit validates a caller-provided initialization or falls back to
// the random truncated-normal default. Provided matrices are cloned so
// training never mutates caller data.
func chooseInit(init *mat.Dense, n, dim int, s *rng.Source) (*mat.Dense, error) {
	if init == nil {
		return initFeatures(n, dim, s), nil
	}
	if init.Rows != n || init.Cols != dim {
		return nil, fmt.Errorf("gcn: init features %dx%d, want %dx%d", init.Rows, init.Cols, n, dim)
	}
	x := init.Clone()
	x.NormalizeRowsL2()
	return x, nil
}

// applySeedSharedInit damps every row of the already-initialized features
// to scale, then overwrites each seed pair's rows with a fresh shared unit
// vector. See Config.SeedSharedInit for the rationale.
func applySeedSharedInit(x1, x2 *mat.Dense, seeds []align.Pair, scale float64, s *rng.Source) {
	if scale <= 0 {
		scale = 0.1
	}
	x1.ScaleInPlace(scale)
	x2.ScaleInPlace(scale)
	dim := x1.Cols
	v := make([]float64, dim)
	for _, p := range seeds {
		var norm float64
		for i := range v {
			v[i] = s.TruncNorm()
			norm += v[i] * v[i]
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			continue
		}
		for i := range v {
			v[i] /= norm
		}
		copy(x1.Row(int(p.U)), v)
		copy(x2.Row(int(p.V)), v)
	}
}

// initFeatures draws X from a truncated normal and L2-normalizes rows, the
// initialization the paper prescribes for capturing "pure" structure.
func initFeatures(n, dim int, s *rng.Source) *mat.Dense {
	x := mat.NewDense(n, dim)
	for i := range x.Data {
		x.Data[i] = s.TruncNorm()
	}
	x.NormalizeRowsL2()
	return x
}

// identity returns the n×n identity matrix.
func identity(n int) *mat.Dense {
	w := mat.NewDense(n, n)
	for i := 0; i < n; i++ {
		w.Set(i, i, 1)
	}
	return w
}

// glorot initializes a weight matrix with the Glorot/Xavier uniform scheme
// standard for GCN layers.
func glorot(rows, cols int, s *rng.Source) *mat.Dense {
	w := mat.NewDense(rows, cols)
	limit := math.Sqrt(6.0 / float64(rows+cols))
	for i := range w.Data {
		w.Data[i] = (2*s.Float64() - 1) * limit
	}
	return w
}

func forward(g *graph, weights []*mat.Dense) { forwardMode(g, weights, false) }

// forwardMode is forward with an explicit kernel mode: serial routes the
// propagation step through the retained serial SpMM reference, which the
// parallel kernel reproduces bit for bit (Config.ForceSerial). Every pass
// overwrites the graph's forward buffers, allocating them on the first.
func forwardMode(g *graph, weights []*mat.Dense, serial bool) {
	layers := len(weights)
	if len(g.q) != layers {
		g.q = make([]*mat.Dense, layers)
		g.pre = make([]*mat.Dense, layers)
		g.act = make([]*mat.Dense, layers-1)
		for l, w := range weights {
			g.q[l] = mat.NewDense(g.adj.Rows, w.Rows)
			g.pre[l] = mat.NewDense(g.adj.Rows, w.Cols)
			if l < layers-1 {
				g.act[l] = mat.NewDense(g.adj.Rows, w.Cols)
			}
		}
	}
	h := g.x
	for l, w := range weights {
		if serial {
			g.adj.NaiveMulDenseInto(g.q[l], h)
		} else {
			g.adj.MulDenseInto(g.q[l], h)
		}
		mat.MulInto(g.pre[l], g.q[l], w)
		if l < layers-1 {
			h = g.act[l]
			copy(h.Data, g.pre[l].Data)
			h.ReLUInPlace()
		}
	}
	g.z = g.pre[layers-1]
}

// negPools holds mined hard negatives: for seed i, pool2[i] are target-KG
// entities near z1(U_i) (used to corrupt V) and pool1[i] source-KG entities
// near z2(V_i) (used to corrupt U).
type negPools struct {
	pool1, pool2 [][]int
}

// mineNegatives finds, for each seed pair, the currently most-similar wrong
// entities on both sides via cosine similarity of the current embeddings.
//
// Both seeds×n similarity matrices are the largest buffers of a mining epoch
// and die as soon as their top-k lists are taken, so they come from the
// scratch arena (as do the gathered seed embeddings).
func mineNegatives(z1, z2 *mat.Dense, seeds []align.Pair, poolSize int) *negPools {
	if poolSize <= 0 {
		poolSize = 10
	}
	u := mat.GetDense(len(seeds), z1.Cols)
	v := mat.GetDense(len(seeds), z2.Cols)
	for i, sd := range seeds {
		copy(u.Row(i), z1.Row(int(sd.U)))
		copy(v.Row(i), z2.Row(int(sd.V)))
	}
	// +1 so dropping the true counterpart still leaves poolSize entries.
	top2 := topKCosine(u, z2, poolSize+1)
	top1 := topKCosine(v, z1, poolSize+1)
	mat.PutDense(u)
	mat.PutDense(v)
	p := &negPools{pool1: make([][]int, len(seeds)), pool2: make([][]int, len(seeds))}
	for i, sd := range seeds {
		for _, c := range top2[i] {
			if c != int(sd.V) {
				p.pool2[i] = append(p.pool2[i], c)
			}
		}
		for _, c := range top1[i] {
			if c != int(sd.U) {
				p.pool1[i] = append(p.pool1[i], c)
			}
		}
		// When the true counterpart is not in the top-(k+1) list, nothing was
		// dropped and the pool holds poolSize+1 entries — trim to the
		// advertised size so every seed draws from exactly poolSize hardest
		// negatives.
		if len(p.pool2[i]) > poolSize {
			p.pool2[i] = p.pool2[i][:poolSize]
		}
		if len(p.pool1[i]) > poolSize {
			p.pool1[i] = p.pool1[i][:poolSize]
		}
	}
	return p
}

// topKCosine returns, per row of a, the k rows of b most cosine-similar to
// it, computing the similarities into a pooled buffer released afterwards.
func topKCosine(a, b *mat.Dense, k int) [][]int {
	sim := mat.CosineSimInto(mat.GetDense(a.Rows, b.Rows), a, b)
	top := mat.TopKRow(sim, k)
	mat.PutDense(sim)
	return top
}

func l1(a, b []float64) float64 {
	var s float64
	for i, v := range a {
		s += math.Abs(v - b[i])
	}
	return s
}

func sign(x float64) float64 {
	switch {
	case x > 0:
		return 1
	case x < 0:
		return -1
	}
	return 0
}

// backward propagates gz = ∂L/∂Z through one GCN, returning per-layer
// weight gradients and this KG's input-feature gradient.
func backward(g *graph, weights []*mat.Dense, gz *mat.Dense) (gw []*mat.Dense, gx *mat.Dense) {
	return backwardMode(g, weights, gz, false)
}

// backwardMode is backward with an explicit kernel mode: serial routes the
// Âᵀ·G step through the retained serial SpMM reference (Config.ForceSerial).
//
// Buffer ownership: gz stays the caller's. Every other matrix of the pass —
// ∂q, each hidden ∂h, the returned weight gradients and ∂X — comes from the
// scratch arena; the intermediates are released here, and the caller
// releases the returned gradients once the optimizer has consumed them.
func backwardMode(g *graph, weights []*mat.Dense, gz *mat.Dense, serial bool) (gw []*mat.Dense, gx *mat.Dense) {
	layers := len(weights)
	gw = make([]*mat.Dense, layers)
	// ghNext is ∂L/∂h_{l+1}, where h_{l+1} is layer l's (post-activation)
	// output; at the top it is ∂L/∂Z.
	ghNext := gz
	for l := layers - 1; l >= 0; l-- {
		// Non-final layers apply ReLU after pre[l]. Below the top, ghNext is
		// this pass's own arena buffer and dead after this layer, so the
		// mask is applied in place.
		dpre := ghNext
		if l < layers-1 {
			for i, v := range g.pre[l].Data {
				if v <= 0 {
					dpre.Data[i] = 0
				}
			}
		}
		// pre[l] = q[l]·W_l  =>  ∂W_l = q[l]ᵀ·dpre ; ∂q[l] = dpre·W_lᵀ.
		q, w := g.q[l], weights[l]
		gw[l] = mat.TMulInto(mat.GetDense(q.Cols, dpre.Cols), q, dpre)
		gq := mat.MulTInto(mat.GetDense(dpre.Rows, w.Rows), dpre, w)
		if dpre != gz {
			mat.PutDense(dpre)
		}
		// q[l] = Â·h_l  =>  ∂h_l = Âᵀ·gq.
		ghNext = mat.GetDense(g.adj.Cols, gq.Cols)
		if serial {
			g.adj.NaiveTMulDenseInto(ghNext, gq)
		} else {
			g.adj.TMulDenseInto(ghNext, gq)
		}
		mat.PutDense(gq)
	}
	gx = ghNext
	return gw, gx
}

// optState implements SGD and Adam over a fixed parameter list.
type optState struct {
	cfg    Config
	params []*mat.Dense
	m, v   []*mat.Dense // Adam moments
	t      int
}

func newOptState(cfg Config, params []*mat.Dense) *optState {
	o := &optState{cfg: cfg, params: params}
	if cfg.Optimizer == Adam {
		o.m = make([]*mat.Dense, len(params))
		o.v = make([]*mat.Dense, len(params))
		for i, p := range params {
			o.m[i] = mat.NewDense(p.Rows, p.Cols)
			o.v[i] = mat.NewDense(p.Rows, p.Cols)
		}
	}
	return o
}

// step applies one optimizer update at the given learning rate (passed per
// step because divergence recovery halves it mid-run).
func (o *optState) step(grads []*mat.Dense, lr float64) {
	switch o.cfg.Optimizer {
	case SGD:
		for i, p := range o.params {
			p.AxpyInPlace(-lr, grads[i])
		}
	case Adam:
		const (
			beta1 = 0.9
			beta2 = 0.999
			eps   = 1e-8
		)
		o.t++
		c1 := 1 - math.Pow(beta1, float64(o.t))
		c2 := 1 - math.Pow(beta2, float64(o.t))
		for i, p := range o.params {
			g := grads[i]
			m, v := o.m[i], o.v[i]
			for j, gj := range g.Data {
				m.Data[j] = beta1*m.Data[j] + (1-beta1)*gj
				v.Data[j] = beta2*v.Data[j] + (1-beta2)*gj*gj
				p.Data[j] -= lr * (m.Data[j] / c1) / (math.Sqrt(v.Data[j]/c2) + eps)
			}
		}
	}
}
