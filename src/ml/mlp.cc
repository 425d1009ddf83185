#include "ml/mlp.h"

#include <cmath>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace glint::ml {
namespace {

void Softmax(std::vector<double>* logits) {
  double mx = (*logits)[0];
  for (double v : *logits) mx = std::max(mx, v);
  double sum = 0;
  for (double& v : *logits) {
    v = std::exp(v - mx);
    sum += v;
  }
  for (double& v : *logits) v /= sum;
}

/// acc[j] += row[j] * s for j in [0, n): the plain loop's multiply then
/// add per element, four elements per SSE2 op.
void AddScaled(float* acc, const float* row, float s, size_t n) {
  size_t j = 0;
#if defined(__SSE2__)
  const __m128 sv = _mm_set1_ps(s);
  for (; j + 4 <= n; j += 4) {
    const __m128 p = _mm_mul_ps(_mm_loadu_ps(row + j), sv);
    _mm_storeu_ps(acc + j, _mm_add_ps(_mm_loadu_ps(acc + j), p));
  }
#endif
  for (; j < n; ++j) acc[j] += row[j] * s;
}

/// acc[o] += wt[i * out + o] * x[i] for every input i in ascending order and
/// every output o: each output's sum runs in the order of the row-major dot
/// product, one multiply then one add per term. The SSE2 body keeps 16
/// outputs in eight registers across all inputs, two per register; the
/// rest (the 2-class output layer) run one at a time.
void LayerSums(const double* wt, const std::vector<double>& x, size_t out,
               double* acc) {
  const size_t in = x.size();
  size_t o = 0;
#if defined(__SSE2__)
  for (; o + 16 <= out; o += 16) {
    __m128d a0 = _mm_loadu_pd(acc + o), a1 = _mm_loadu_pd(acc + o + 2);
    __m128d a2 = _mm_loadu_pd(acc + o + 4), a3 = _mm_loadu_pd(acc + o + 6);
    __m128d a4 = _mm_loadu_pd(acc + o + 8), a5 = _mm_loadu_pd(acc + o + 10);
    __m128d a6 = _mm_loadu_pd(acc + o + 12), a7 = _mm_loadu_pd(acc + o + 14);
    const double* w = wt + o;
    for (size_t i = 0; i < in; ++i, w += out) {
      const __m128d xi = _mm_set1_pd(x[i]);
      a0 = _mm_add_pd(a0, _mm_mul_pd(_mm_loadu_pd(w), xi));
      a1 = _mm_add_pd(a1, _mm_mul_pd(_mm_loadu_pd(w + 2), xi));
      a2 = _mm_add_pd(a2, _mm_mul_pd(_mm_loadu_pd(w + 4), xi));
      a3 = _mm_add_pd(a3, _mm_mul_pd(_mm_loadu_pd(w + 6), xi));
      a4 = _mm_add_pd(a4, _mm_mul_pd(_mm_loadu_pd(w + 8), xi));
      a5 = _mm_add_pd(a5, _mm_mul_pd(_mm_loadu_pd(w + 10), xi));
      a6 = _mm_add_pd(a6, _mm_mul_pd(_mm_loadu_pd(w + 12), xi));
      a7 = _mm_add_pd(a7, _mm_mul_pd(_mm_loadu_pd(w + 14), xi));
    }
    _mm_storeu_pd(acc + o, a0);
    _mm_storeu_pd(acc + o + 2, a1);
    _mm_storeu_pd(acc + o + 4, a2);
    _mm_storeu_pd(acc + o + 6, a3);
    _mm_storeu_pd(acc + o + 8, a4);
    _mm_storeu_pd(acc + o + 10, a5);
    _mm_storeu_pd(acc + o + 12, a6);
    _mm_storeu_pd(acc + o + 14, a7);
  }
#endif
  for (; o < out; ++o) {
    double a = acc[o];
    for (size_t i = 0; i < in; ++i) a += wt[i * out + o] * x[i];
    acc[o] = a;
  }
}

}  // namespace

void Mlp::Transpose(Layer* layer) {
  const size_t out = layer->w.size();
  const size_t in = layer->w[0].size();
  layer->wt.resize(in * out);
  for (size_t o = 0; o < out; ++o) {
    for (size_t i = 0; i < in; ++i) layer->wt[i * out + o] = layer->w[o][i];
  }
}

std::vector<double> Mlp::Forward(const FloatVec& x,
                                 std::vector<FloatVec>* activations) const {
  FloatVec cur = scaler_.Transform(x);
  if (activations) activations->push_back(cur);
  std::vector<double> in, acc;
  for (size_t li = 0; li < layers_.size(); ++li) {
    const Layer& layer = layers_[li];
    const size_t out = layer.b.size();
    in.assign(cur.begin(), cur.end());
    acc.assign(layer.b.begin(), layer.b.end());
    LayerSums(layer.wt.data(), in, out, acc.data());
    FloatVec next(out);
    for (size_t o = 0; o < out; ++o) next[o] = static_cast<float>(acc[o]);
    const bool last = (li + 1 == layers_.size());
    if (!last) {
      for (auto& v : next) v = v > 0 ? v : 0.f;  // ReLU
    }
    if (activations) activations->push_back(next);
    cur = std::move(next);
  }
  std::vector<double> logits(cur.begin(), cur.end());
  Softmax(&logits);
  return logits;
}

void Mlp::Fit(const Dataset& data, const std::vector<double>& class_weights) {
  GLINT_CHECK(data.size() > 0);
  scaler_.Fit(data.x);
  num_classes_ = std::max(2, data.NumClasses());

  Rng rng(params_.seed);
  // Build layers: input -> hidden... -> num_classes.
  std::vector<size_t> dims;
  dims.push_back(data.dim());
  for (size_t h : params_.hidden) dims.push_back(h);
  dims.push_back(static_cast<size_t>(num_classes_));
  layers_.clear();
  for (size_t li = 0; li + 1 < dims.size(); ++li) {
    Layer layer;
    const size_t in = dims[li];
    const size_t out = dims[li + 1];
    const double scale = std::sqrt(2.0 / static_cast<double>(in));  // He init
    layer.w.assign(out, FloatVec(in));
    layer.mw.assign(out, FloatVec(in, 0.f));
    layer.vw.assign(out, FloatVec(in, 0.f));
    layer.b.assign(out, 0.f);
    layer.mb.assign(out, 0.f);
    layer.vb.assign(out, 0.f);
    for (auto& row : layer.w) {
      for (auto& v : row) v = static_cast<float>(rng.Gaussian(0, scale));
    }
    Transpose(&layer);
    layers_.push_back(std::move(layer));
  }

  std::vector<size_t> order(data.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;

  const double beta1 = 0.9, beta2 = 0.999, eps = 1e-8;
  double step_count = 0;

  for (int epoch = 0; epoch < params_.epochs; ++epoch) {
    rng.Shuffle(&order);
    for (size_t start = 0; start < order.size();
         start += static_cast<size_t>(params_.batch_size)) {
      const size_t end =
          std::min(order.size(), start + static_cast<size_t>(params_.batch_size));
      // Accumulate gradients over the batch.
      std::vector<std::vector<FloatVec>> gw(layers_.size());
      std::vector<FloatVec> gb(layers_.size());
      for (size_t li = 0; li < layers_.size(); ++li) {
        gw[li].assign(layers_[li].w.size(),
                      FloatVec(layers_[li].w[0].size(), 0.f));
        gb[li].assign(layers_[li].b.size(), 0.f);
      }

      for (size_t bi = start; bi < end; ++bi) {
        const size_t i = order[bi];
        std::vector<FloatVec> acts;
        std::vector<double> probs = Forward(data.x[i], &acts);
        const int label = data.y[i];
        const double cw =
            class_weights.empty()
                ? 1.0
                : class_weights[static_cast<size_t>(label)];
        // dL/dlogit = (p - onehot) * cw
        FloatVec delta(probs.size());
        for (size_t c = 0; c < probs.size(); ++c) {
          delta[c] = static_cast<float>(
              cw * (probs[c] - (static_cast<int>(c) == label ? 1.0 : 0.0)));
        }
        // Backprop through layers (acts[li] is input to layer li).
        for (size_t li = layers_.size(); li-- > 0;) {
          const FloatVec& input = acts[li];
          for (size_t o = 0; o < delta.size(); ++o) {
            gb[li][o] += delta[o];
            AddScaled(gw[li][o].data(), input.data(), delta[o], input.size());
          }
          if (li == 0) break;
          // Propagate delta to previous layer through W and ReLU.
          FloatVec prev(input.size(), 0.f);
          for (size_t o = 0; o < delta.size(); ++o) {
            AddScaled(prev.data(), layers_[li].w[o].data(), delta[o],
                      input.size());
          }
          for (size_t d = 0; d < prev.size(); ++d) {
            if (input[d] <= 0) prev[d] = 0;  // ReLU'
          }
          delta = std::move(prev);
        }
      }

      // Adam update.
      step_count += 1;
      const double bc1 = 1.0 - std::pow(beta1, step_count);
      const double bc2 = 1.0 - std::pow(beta2, step_count);
      const double inv_batch = 1.0 / static_cast<double>(end - start);
      for (size_t li = 0; li < layers_.size(); ++li) {
        Layer& layer = layers_[li];
        for (size_t o = 0; o < layer.w.size(); ++o) {
          for (size_t d = 0; d < layer.w[o].size(); ++d) {
            const double g = gw[li][o][d] * inv_batch +
                             params_.weight_decay * layer.w[o][d];
            layer.mw[o][d] = static_cast<float>(beta1 * layer.mw[o][d] +
                                                (1 - beta1) * g);
            layer.vw[o][d] = static_cast<float>(beta2 * layer.vw[o][d] +
                                                (1 - beta2) * g * g);
            layer.w[o][d] -= static_cast<float>(
                params_.lr * (layer.mw[o][d] / bc1) /
                (std::sqrt(layer.vw[o][d] / bc2) + eps));
          }
          const double g = gb[li][o] * inv_batch;
          layer.mb[o] = static_cast<float>(beta1 * layer.mb[o] + (1 - beta1) * g);
          layer.vb[o] = static_cast<float>(beta2 * layer.vb[o] +
                                           (1 - beta2) * g * g);
          layer.b[o] -= static_cast<float>(params_.lr * (layer.mb[o] / bc1) /
                                           (std::sqrt(layer.vb[o] / bc2) + eps));
        }
        Transpose(&layer);
      }
    }
  }
}

std::vector<double> Mlp::Probabilities(const FloatVec& x) const {
  return Forward(x, nullptr);
}

int Mlp::Predict(const FloatVec& x) const {
  auto probs = Probabilities(x);
  int best = 0;
  for (size_t c = 1; c < probs.size(); ++c) {
    if (probs[c] > probs[static_cast<size_t>(best)]) best = static_cast<int>(c);
  }
  return best;
}

double Mlp::PredictProba(const FloatVec& x) const {
  auto probs = Probabilities(x);
  return probs.size() > 1 ? probs[1] : 0.0;
}

}  // namespace glint::ml
