package nn

import (
	"math"
	"math/rand"
	"testing"
)

func TestTrainXOR(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	net := NewNetwork(
		NewDense(2, 8, rng),
		NewReLU(),
		NewDense(8, 2, rng),
	)
	x := FromRows([][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}})
	y := OneHot([]int{0, 1, 1, 0}, 2)
	tr := Trainer{Net: net, Loss: SoftmaxCrossEntropy{}, Opt: NewAdam(0.05)}
	losses, err := tr.Fit(x, y, TrainConfig{Epochs: 300, BatchSize: 4, Seed: 1})
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if losses[len(losses)-1] > 0.05 {
		t.Fatalf("XOR final loss = %v, want < 0.05", losses[len(losses)-1])
	}
	pred := Argmax(net.Predict(x))
	want := []int{0, 1, 1, 0}
	for i := range want {
		if pred[i] != want[i] {
			t.Fatalf("XOR pred = %v, want %v", pred, want)
		}
	}
}

func TestTrainAutoencoderReconstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	net := NewNetwork(
		NewDense(8, 16, rng),
		NewReLU(),
		NewDense(16, 8, rng),
	)
	// Structured inputs: two cluster prototypes with noise.
	x := NewMatrix(40, 8)
	for i := 0; i < x.Rows; i++ {
		for j := 0; j < 8; j++ {
			base := 0.1
			if (i%2 == 0) == (j < 4) {
				base = 0.9
			}
			x.Set(i, j, base+0.05*rng.NormFloat64())
		}
	}
	tr := Trainer{Net: net, Loss: MSE{}, Opt: NewAdam(0.01)}
	losses, err := tr.Fit(x, x, TrainConfig{Epochs: 200, BatchSize: 8, Seed: 2})
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if final := losses[len(losses)-1]; final > 0.01 {
		t.Fatalf("AE final loss = %v, want < 0.01", final)
	}
	re := RMSE(net.Predict(x), x)
	for i, v := range re {
		if v > 0.2 {
			t.Fatalf("row %d RMSE = %v", i, v)
		}
	}
}

func TestTrainerErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tr := Trainer{Net: NewNetwork(NewDense(2, 2, rng)), Loss: MSE{}, Opt: &SGD{LR: 0.1}}
	if _, err := tr.Fit(NewMatrix(3, 2), NewMatrix(4, 2), TrainConfig{}); err == nil {
		t.Fatal("row mismatch should error")
	}
	if _, err := tr.Fit(NewMatrix(0, 2), NewMatrix(0, 2), TrainConfig{}); err == nil {
		t.Fatal("empty training set should error")
	}
}

func TestTrainerEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	tr := Trainer{Net: NewNetwork(NewDense(2, 2, rng)), Loss: MSE{}, Opt: &SGD{LR: 0.01}}
	calls := 0
	losses, err := tr.Fit(randMatrix(rng, 10, 2), randMatrix(rng, 10, 2), TrainConfig{
		Epochs: 50, BatchSize: 5,
		OnEpoch: func(epoch int, loss float64) bool {
			calls++
			return epoch < 2 // stop after 3 epochs
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(losses) != 3 || calls != 3 {
		t.Fatalf("early stop: %d losses, %d calls", len(losses), calls)
	}
}

func TestTrainerEarlyStoppingRestoresBest(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	net := NewNetwork(NewDense(3, 16, rng), NewReLU(), NewDense(16, 1, rng))
	// Tiny noisy dataset: prone to overfit, validation loss rises.
	x := randMatrix(rng, 30, 3)
	y := NewMatrix(30, 1)
	for i := 0; i < 30; i++ {
		y.Set(i, 0, x.At(i, 0)+0.3*rng.NormFloat64())
	}
	tr := Trainer{Net: net, Loss: MSE{}, Opt: NewAdam(0.02)}
	losses, err := tr.Fit(x, y, TrainConfig{
		Epochs: 500, BatchSize: 8, Seed: 2,
		ValFraction: 0.3, Patience: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(losses) >= 500 {
		t.Fatalf("early stopping never triggered: %d epochs", len(losses))
	}
}

func TestTrainingDeterministicPerSeed(t *testing.T) {
	build := func() (*Network, *Trainer) {
		rng := rand.New(rand.NewSource(5))
		net := NewNetwork(NewDense(3, 5, rng), NewReLU(), NewDense(5, 2, rng))
		return net, &Trainer{Net: net, Loss: SoftmaxCrossEntropy{}, Opt: NewAdam(0.01)}
	}
	rng := rand.New(rand.NewSource(6))
	x := randMatrix(rng, 20, 3)
	y := OneHot(make([]int, 20), 2)
	n1, t1 := build()
	n2, t2 := build()
	if _, err := t1.Fit(x, y, TrainConfig{Epochs: 5, BatchSize: 4, Seed: 9}); err != nil {
		t.Fatal(err)
	}
	if _, err := t2.Fit(x, y, TrainConfig{Epochs: 5, BatchSize: 4, Seed: 9}); err != nil {
		t.Fatal(err)
	}
	w1, w2 := n1.SaveWeights(), n2.SaveWeights()
	for i := range w1 {
		if w1[i] != w2[i] {
			t.Fatal("training not deterministic for fixed seeds")
		}
	}
}

func TestSaveLoadWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n1 := NewNetwork(NewDense(4, 3, rng), NewReLU(), NewDense(3, 2, rng))
	n2 := NewNetwork(NewDense(4, 3, rng), NewReLU(), NewDense(3, 2, rng))
	if err := n2.LoadWeights(n1.SaveWeights()); err != nil {
		t.Fatalf("LoadWeights: %v", err)
	}
	x := randMatrix(rng, 3, 4)
	a, b := n1.Predict(x), n2.Predict(x)
	if !matricesClose(a, b, 0) {
		t.Fatal("loaded network predicts differently")
	}
	if err := n2.LoadWeights([]float64{1, 2}); err == nil {
		t.Fatal("wrong weight count should error")
	}
}

func TestNumParams(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n := NewNetwork(NewDense(10, 5, rng)) // 50 weights + 5 bias
	if got := n.NumParams(); got != 55 {
		t.Fatalf("NumParams = %d, want 55", got)
	}
}

func TestDropoutTrainVsEval(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	d := NewDropout(0.5, rng)
	x := NewMatrix(1, 1000)
	x.Fill(1)
	// Eval: identity.
	out := d.Forward(x, false)
	for _, v := range out.Data {
		if v != 1 {
			t.Fatal("dropout at eval should be identity")
		}
	}
	// Train: roughly half dropped, survivors scaled by 2.
	out = d.Forward(x, true)
	zeros, twos := 0, 0
	for _, v := range out.Data {
		switch v {
		case 0:
			zeros++
		case 2:
			twos++
		default:
			t.Fatalf("unexpected dropout value %v", v)
		}
	}
	if zeros < 400 || zeros > 600 {
		t.Fatalf("dropped %d of 1000, want ~500", zeros)
	}
	_ = twos
}

func TestDropoutBackwardMask(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	d := NewDropout(0.5, rng)
	x := NewMatrix(1, 100)
	x.Fill(1)
	out := d.Forward(x, true)
	grad := NewMatrix(1, 100)
	grad.Fill(1)
	back := d.Backward(grad)
	for i := range out.Data {
		if (out.Data[i] == 0) != (back.Data[i] == 0) {
			t.Fatal("backward mask inconsistent with forward")
		}
	}
}

func TestDropoutBadProbabilityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewDropout(1.0, rand.New(rand.NewSource(1)))
}

func TestSGDMomentumConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	net := NewNetwork(NewDense(2, 1, rng))
	// Learn y = x1 + 2*x2.
	x := randMatrix(rng, 50, 2)
	y := NewMatrix(50, 1)
	for i := 0; i < 50; i++ {
		y.Set(i, 0, x.At(i, 0)+2*x.At(i, 1))
	}
	tr := Trainer{Net: net, Loss: MSE{}, Opt: &SGD{LR: 0.05, Momentum: 0.9}}
	losses, err := tr.Fit(x, y, TrainConfig{Epochs: 100, BatchSize: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if final := losses[len(losses)-1]; final > 1e-3 {
		t.Fatalf("SGD+momentum final loss = %v", final)
	}
}

func TestAdamWShrinksWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	// Zero gradients: AdamW must still shrink weights; plain Adam must
	// leave them unchanged.
	mk := func() *Param {
		p := newParam(4, 4)
		p.W.Randomize(rng, 1)
		return p
	}
	pw := mk()
	before := append([]float64(nil), pw.W.Data...)
	NewAdamW(0.1, 0.5).Step([]*Param{pw})
	for i := range before {
		if before[i] != 0 && math.Abs(pw.W.Data[i]) >= math.Abs(before[i]) {
			t.Fatalf("AdamW did not shrink weight %d: %v -> %v", i, before[i], pw.W.Data[i])
		}
	}

	pa := mk()
	before = append([]float64(nil), pa.W.Data...)
	NewAdam(0.1).Step([]*Param{pa})
	for i := range before {
		if before[i] != pa.W.Data[i] {
			t.Fatal("plain Adam changed weights with zero gradient")
		}
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	logits := randMatrix(rng, 6, 9)
	logits.Scale(30) // stress numerical stability
	p := Softmax(logits)
	for i := 0; i < p.Rows; i++ {
		var sum float64
		for _, v := range p.Row(i) {
			if v < 0 || math.IsNaN(v) {
				t.Fatal("invalid probability")
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("row %d sums to %v", i, sum)
		}
	}
}

func TestOneHotAndArgmax(t *testing.T) {
	y := OneHot([]int{2, 0}, 3)
	if y.At(0, 2) != 1 || y.At(1, 0) != 1 || y.At(0, 0) != 0 {
		t.Fatalf("OneHot wrong: %v", y.Data)
	}
	got := Argmax(y)
	if got[0] != 2 || got[1] != 0 {
		t.Fatalf("Argmax = %v", got)
	}
}

func TestOneHotRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	OneHot([]int{5}, 3)
}

func TestRMSEKnownValues(t *testing.T) {
	pred := FromRows([][]float64{{1, 1}, {0, 0}})
	tgt := FromRows([][]float64{{0, 0}, {0, 0}})
	got := RMSE(pred, tgt)
	if math.Abs(got[0]-1) > 1e-12 || got[1] != 0 {
		t.Fatalf("RMSE = %v", got)
	}
}
