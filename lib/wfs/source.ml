let log2i n =
  let rec go k v = if v = 1 then k else go (k + 1) (v / 2) in
  go 0 n

(* The template uses {NAME} placeholders for scenario constants. *)
let template =
  {|
// hArtes-wfs analogue (generated): one primary source, {S} speakers.
// Pipeline: wav_load -> ffw (filter weights) -> per chunk:
//   AudioIo_getFrames -> wave propagation gains -> Filter_process
//   (overlap-add FFT convolution) -> DelayLine_processChunk ->
//   AudioIo_setFrames -> finally wav_store.

int cfg_rate;
int cfg_chunks;
int src_len;
int dl_widx;

float src_sig[{INMAX}];
float fft_re[{N}];
float fft_im[{N}];
float filt_re[{N}];
float filt_im[{N}];
float eq_re[{N}];
float eq_im[{N}];
float mon_re[{N}];
float mon_im[{N}];
float taps_buf[{TAPS}];
float frame_buf[{F}];
float filtered[{F}];
float overlap[{N}];
float dline[{DL}];
float gain[{S}];
int   del_i[{S}];
float del_f[{S}];
float spk_chunk[{SPK}];
float out_buf[{OUTSZ}];
float src_x;
float src_y;

// ---- generic small kernels ----

int bitrev(int i, int bits) {
  int r; r = 0;
  for (int b = 0; b < bits; b++) {
    r = (r << 1) | (i & 1);
    i = i >> 1;
  }
  return r;
}

void perm(float* re, float* im, int n, int bits) {
  for (int i = 0; i < n; i++) {
    int j; j = bitrev(i, bits);
    if (j > i) {
      float t;
      t = re[i]; re[i] = re[j]; re[j] = t;
      t = im[i]; im[i] = im[j]; im[j] = t;
    }
  }
}

// in-place Danielson-Lanczos; dir = 1 forward, -1 inverse (scales by 1/n)
void fft1d(float* re, float* im, int n, int bits, int dir) {
  perm(re, im, n, bits);
  int len; len = 2;
  while (len <= n) {
    int half; half = len / 2;
    float ang; ang = (0.0 - 2.0) * {PI} * (float) dir / (float) len;
    int i; i = 0;
    while (i < n) {
      for (int j = 0; j < half; j++) {
        float wr; wr = cos(ang * (float) j);
        float wi; wi = sin(ang * (float) j);
        int a; a = i + j;
        int b; b = a + half;
        float ur; ur = re[a];
        float ui; ui = im[a];
        float vr; vr = re[b] * wr - im[b] * wi;
        float vi; vi = re[b] * wi + im[b] * wr;
        re[a] = ur + vr;
        im[a] = ui + vi;
        re[b] = ur - vr;
        im[b] = ui - vi;
      }
      i = i + len;
    }
    len = len * 2;
  }
  if (dir < 0) {
    float inv; inv = 1.0 / (float) n;
    for (int i = 0; i < n; i++) {
      re[i] = re[i] * inv;
      im[i] = im[i] * inv;
    }
  }
}

void cmult(float ar, float ai, float br, float bi, float* cr, float* ci) {
  *cr = ar * br - ai * bi;
  *ci = ar * bi + ai * br;
}

void cadd(float ar, float ai, float br, float bi, float* cr, float* ci) {
  *cr = ar + br;
  *ci = ai + bi;
}

void zeroRealVec(float* v, int n) {
  for (int i = 0; i < n; i++) v[i] = 0.0;
}

void zeroCplxVec(float* re, float* im, int n) {
  for (int i = 0; i < n; i++) {
    re[i] = 0.0;
    im[i] = 0.0;
  }
}

void r2c(float* x, float* re, float* im, int n) {
  for (int i = 0; i < n; i++) {
    re[i] = x[i];
    im[i] = 0.0;
  }
}

void c2r(float* re, float* x, int n) {
  for (int i = 0; i < n; i++) x[i] = re[i];
}

// ---- initialization ----

int ldint() {
  char cfg[16];
  int fd; fd = open("config.bin", 0);
  if (fd < 0) return -1;
  read(fd, (char*) cfg, 16);
  close(fd);
  cfg_rate = 0;
  cfg_chunks = 0;
  for (int i = 0; i < 8; i++) cfg_rate = cfg_rate | (cfg[i] << (8 * i));
  for (int i = 0; i < 8; i++) cfg_chunks = cfg_chunks | (cfg[8 + i] << (8 * i));
  return 0;
}

int wav_load() {
  int fd; fd = open("input.wav", 0);
  if (fd < 0) return -1;
  int sz; sz = fsize(fd);
  char* raw; raw = malloc(sz);
  read(fd, raw, sz);
  close(fd);
  if (raw[0] != 'R' || raw[1] != 'I' || raw[2] != 'F' || raw[3] != 'F') return -2;
  if (raw[8] != 'W' || raw[9] != 'A' || raw[10] != 'V' || raw[11] != 'E') return -2;
  int nch; nch = raw[22] | (raw[23] << 8);
  int dlen; dlen = raw[40] | (raw[41] << 8) | (raw[42] << 16) | (raw[43] << 24);
  int n; n = dlen / (2 * nch);
  if (n > {INMAX}) n = {INMAX};
  for (int i = 0; i < n; i++) {
    int lo; lo = raw[44 + 2 * i * nch];
    int hi; hi = raw[45 + 2 * i * nch];
    int v; v = lo | (hi << 8);
    if (v >= 32768) v = v - 65536;
    src_sig[i] = (float) v / 32767.0;
  }
  free(raw);
  src_len = n;
  return n;
}

// filter weights: windowed-sinc lowpass + derivative blend, transformed to
// the frequency domain ("ffw" = fft filter weights)
void ffw(float* hre, float* him, float cutoff, float blend) {
  int mid; mid = {TAPS} / 2;
  float dc; dc = 0.0;
  for (int i = 0; i < {TAPS}; i++) {
    float w; w = 0.54 - 0.46 * cos(2.0 * {PI} * (float) i / (float) ({TAPS} - 1));
    float k; k = (float) (i - mid);
    float s;
    if (i == mid) s = 2.0 * cutoff;
    else s = sin(2.0 * {PI} * cutoff * k) / ({PI} * k);
    taps_buf[i] = s * w;
    dc = dc + s * w;
  }
  for (int i = 0; i < {TAPS}; i++) taps_buf[i] = taps_buf[i] / dc;
  taps_buf[mid] = taps_buf[mid] + blend;
  taps_buf[mid + 1] = taps_buf[mid + 1] - blend / 2.0;
  taps_buf[mid - 1] = taps_buf[mid - 1] - blend / 2.0;
  zeroCplxVec(hre, him, {N});
  for (int i = 0; i < {TAPS}; i++) hre[i] = taps_buf[i];
  fft1d(hre, him, {N}, {LOGN}, 1);
}

// ---- wave propagation ----

void PrimarySource_deriveTP(int step) {
  float t; t = (float) step / (float) {C};
  src_x = (0.0 - 2.0) + 4.0 * t;
  src_y = 1.5 + 0.5 * sin(2.0 * {PI} * t);
}

float calculateGainPQ(int s) {
  float sx; sx = 0.125 * ((float) s - (float) {S} / 2.0);
  float dx; dx = src_x - sx;
  float dy; dy = src_y;
  float dist; dist = sqrt(dx * dx + dy * dy);
  float dsamp; dsamp = dist * (float) cfg_rate / 343.0;
  del_i[s] = (int) dsamp;
  del_f[s] = dsamp - (float) del_i[s];
  return 1.0 / (1.0 + dist);
}

void vsmult2d(float* v, float sc, int n) {
  for (int i = 0; i < n; i++) v[i] = v[i] * sc;
}

void PrimarySource_update(int step) {
  PrimarySource_deriveTP(step);
  for (int s = 0; s < {S}; s++) {
    float g; g = calculateGainPQ(s);
    float tmp[2];
    tmp[0] = g;
    tmp[1] = gain[s];
    vsmult2d(tmp, 0.5, 2);
    gain[s] = tmp[0] + tmp[1];
  }
}

// ---- per-chunk processing ----

void AudioIo_getFrames(int c) {
  int off; off = c * {F};
  for (int i = 0; i < {F}; i++) {
    if (off + i < src_len) frame_buf[i] = src_sig[off + i];
    else frame_buf[i] = 0.0;
  }
}

void Filter_process_pre_() {
  zeroCplxVec(fft_re, fft_im, {N});
  r2c(frame_buf, fft_re, fft_im, {F});
}

void Filter_process() {
  Filter_process_pre_();
  fft1d(fft_re, fft_im, {N}, {LOGN}, 1);
  for (int k = 0; k < {N}; k++) {
    float tr; float ti;
    cmult(fft_re[k], fft_im[k], filt_re[k], filt_im[k], &tr, &ti);
    cadd(mon_re[k], mon_im[k], tr, ti, &mon_re[k], &mon_im[k]);
    fft_re[k] = tr;
    fft_im[k] = ti;
  }
  fft1d(fft_re, fft_im, {N}, {LOGN}, -1);
  c2r(fft_re, filtered, {F});
  for (int i = 0; i < {F}; i++) filtered[i] = filtered[i] + overlap[i];
  for (int i = 0; i < {TAIL}; i++) {
    float prev;
    if (i + {F} < {N}) prev = overlap[i + {F}];
    else prev = 0.0;
    overlap[i] = fft_re[{F} + i] + prev;
  }
  for (int i = {TAIL}; i < {N}; i++) overlap[i] = 0.0;
}

void DelayLine_processChunk() {
  for (int i = 0; i < {F}; i++) {
    dline[dl_widx & {DLMASK}] = filtered[i];
    dl_widx++;
  }
  int base; base = dl_widx - {F};
  for (int s = 0; s < {S}; s++) {
    zeroRealVec(spk_chunk + s * {F}, {F});
    float g; g = gain[s];
    int d; d = del_i[s];
    float fr; fr = del_f[s];
    for (int i = 0; i < {F}; i++) {
      int idx; idx = base + i - d;
      float a; float b;
      if (idx >= 1) {
        a = dline[idx & {DLMASK}];
        b = dline[(idx - 1) & {DLMASK}];
      } else {
        a = 0.0;
        b = 0.0;
      }
      spk_chunk[s * {F} + i] = g * (a * (1.0 - fr) + b * fr);
    }
  }
}

// copies each speaker's chunk into its row of the speaker-major output
// buffer as one block move per speaker (memcpy goes through the block-copy
// instruction): very high bytes-per-instruction, all-distinct addresses --
// the paper's standout kernel
void AudioIo_setFrames(int c) {
  for (int s = 0; s < {S}; s++) {
    memcpy((char*) (out_buf + (s * {C} + c) * {F}),
           (char*) (spk_chunk + s * {F}),
           {F} * 8);
  }
}

// ---- output ----

void w16(char* p, int off, int v) {
  p[off] = v & 255;
  p[off + 1] = (v >> 8) & 255;
}

void w32(char* p, int off, int v) {
  p[off] = v & 255;
  p[off + 1] = (v >> 8) & 255;
  p[off + 2] = (v >> 16) & 255;
  p[off + 3] = (v >> 24) & 255;
}

int wav_store() {
  int total; total = {OUTSZ};
  int dbytes; dbytes = total * 2;
  char* out; out = malloc(44 + dbytes);
  out[0] = 'R'; out[1] = 'I'; out[2] = 'F'; out[3] = 'F';
  w32(out, 4, 36 + dbytes);
  out[8] = 'W'; out[9] = 'A'; out[10] = 'V'; out[11] = 'E';
  out[12] = 'f'; out[13] = 'm'; out[14] = 't'; out[15] = ' ';
  w32(out, 16, 16);
  w16(out, 20, 1);
  w16(out, 22, {S});
  w32(out, 24, cfg_rate);
  w32(out, 28, cfg_rate * {S} * 2);
  w16(out, 32, {S} * 2);
  w16(out, 34, 16);
  out[36] = 'd'; out[37] = 'a'; out[38] = 't'; out[39] = 'a';
  w32(out, 40, dbytes);
  // peak scan (read pass over the whole output buffer)
  float peak; peak = 0.0;
  for (int i = 0; i < total; i++) {
    float x; x = out_buf[i];
    if (x > peak) peak = x;
    if (0.0 - x > peak) peak = 0.0 - x;
  }
  float norm; norm = 1.0;
  if (peak > 1.0) norm = 1.0 / peak;
  // quantization pass: interleave the speaker-major buffer sample by
  // sample (strided reads over the entire output -- a huge set of distinct
  // addresses feeding one kernel, as the paper observes for wav_store)
  for (int fi = 0; fi < {CF}; fi++) {
    for (int s = 0; s < {S}; s++) {
      float x; x = out_buf[s * {CF} + fi] * norm;
      if (x > 1.0) x = 1.0;
      if (x < 0.0 - 1.0) x = 0.0 - 1.0;
      float scaled; scaled = x * 32767.0;
      int v;
      if (scaled >= 0.0) v = (int) (scaled + 0.5);
      else v = 0 - (int) (0.5 - scaled);
      if (v < 0) v = v + 65536;
      int pos; pos = 44 + 2 * (fi * {S} + s);
      out[pos] = v & 255;
      out[pos + 1] = (v >> 8) & 255;
    }
  }
  int fd; fd = open("output.wav", 1);
  write(fd, out, 44 + dbytes);
  close(fd);
  free(out);
  return total;
}

// ---- driver ----

int main() {
  ldint();
  if (cfg_chunks != {C}) {
    print_str("wfs: config/chunk mismatch\n");
    return 2;
  }
  int n; n = wav_load();
  if (n <= 0) {
    print_str("wfs: cannot load input\n");
    return 1;
  }
  ffw(filt_re, filt_im, 0.45, 0.5);
  ffw(eq_re, eq_im, 0.4, 0.0);
  for (int k = 0; k < {N}; k++) {
    float tr; float ti;
    cmult(filt_re[k], filt_im[k], eq_re[k], eq_im[k], &tr, &ti);
    filt_re[k] = tr;
    filt_im[k] = ti;
  }
  dl_widx = 0;
  zeroRealVec(dline, {DL});
  zeroRealVec(overlap, {N});
  zeroCplxVec(mon_re, mon_im, {N});
  for (int c = 0; c < {C}; c++) {
    AudioIo_getFrames(c);
    if (c % 2 == 0 && c <= {C} / 2) PrimarySource_update(c / 2);
    Filter_process();
    DelayLine_processChunk();
    AudioIo_setFrames(c);
  }
  int w; w = wav_store();
  float e; e = 0.0;
  for (int k = 0; k < {N}; k++) {
    e = e + mon_re[k] * mon_re[k] + mon_im[k] * mon_im[k];
  }
  print_str("wfs: chunks=");
  print_int({C});
  print_str(" samples=");
  print_int(w);
  print_str(" energy=");
  print_float(e);
  print_char('\n');
  return 0;
}
|}

let generate (s : Scenario.t) =
  (match Scenario.validate s with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Wfs.Source.generate: " ^ msg));
  let substitutions =
    [
      ("{N}", string_of_int s.fft_n);
      ("{F}", string_of_int s.frame);
      ("{S}", string_of_int s.speakers);
      ("{C}", string_of_int s.chunks);
      ("{TAPS}", string_of_int s.taps);
      ("{DL}", string_of_int s.delay_len);
      ("{DLMASK}", string_of_int (s.delay_len - 1));
      ("{LOGN}", string_of_int (log2i s.fft_n));
      ("{SPK}", string_of_int (s.speakers * s.frame));
      ("{OUTSZ}", string_of_int (s.chunks * s.frame * s.speakers));
      ("{CF}", string_of_int (s.chunks * s.frame));
      ("{INMAX}", string_of_int (Scenario.input_samples s));
      ("{TAIL}", string_of_int (s.fft_n - s.frame));
      ("{PI}", Printf.sprintf "%.17g" Float.pi);
    ]
  in
  Tq_minic.Driver.fill_template substitutions template
