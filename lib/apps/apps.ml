let template =
  {|
// JPEG-flavoured image pipeline on a synthetic {W}x{H} grayscale image:
// generate -> sobel edge detect (feature pass) and, independently,
// per-8x8-block DCT of the source -> quantize -> zigzag -> run-length
// encode (compression pass).

int lcg_state;

char img[{PIXELS}];
char edges[{PIXELS}];
float blk[64];
float tmp8[8];
float coef[64];
int   zz[64];
int   qtab[64];
char  stream[{STREAM}];
char  rle[{STREAM}];

int lcg() {
  lcg_state = lcg_state * 1103515245 + 12345;
  return (lcg_state >> 16) & 255;
}

void gen_image() {
  for (int y = 0; y < {H}; y++) {
    for (int x = 0; x < {W}; x++) {
      // smooth radial gradient plus a little sensor noise
      int v; v = (x * x + y * y) >> 5;
      if (v > 255) v = 255;
      v = (v * 15 + lcg()) / 16;
      img[y * {W} + x] = v;
    }
  }
}

int clamp255(int v) {
  if (v < 0) return 0;
  if (v > 255) return 255;
  return v;
}

void sobel() {
  for (int y = 1; y < {H} - 1; y++) {
    for (int x = 1; x < {W} - 1; x++) {
      int p; p = y * {W} + x;
      int gx;
      gx = img[p - {W} + 1] + 2 * img[p + 1] + img[p + {W} + 1]
         - img[p - {W} - 1] - 2 * img[p - 1] - img[p + {W} - 1];
      int gy;
      gy = img[p + {W} - 1] + 2 * img[p + {W}] + img[p + {W} + 1]
         - img[p - {W} - 1] - 2 * img[p - {W}] - img[p - {W} + 1];
      int ax; ax = gx; if (ax < 0) ax = 0 - ax;
      int ay; ay = gy; if (ay < 0) ay = 0 - ay;
      edges[p] = clamp255(ax + ay);
    }
  }
}

// naive 8-point DCT-II on v[0..7] with stride
void dct8(float* v, int stride) {
  for (int k = 0; k < 8; k++) {
    float acc; acc = 0.0;
    for (int n = 0; n < 8; n++) {
      acc = acc + v[n * stride] * cos({PI} * ((float) n + 0.5) * (float) k / 8.0);
    }
    tmp8[k] = acc;
  }
  for (int k = 0; k < 8; k++) v[k * stride] = tmp8[k];
}

void dct_block(int bx, int by) {
  for (int y = 0; y < 8; y++) {
    for (int x = 0; x < 8; x++) {
      blk[y * 8 + x] = (float) img[(by * 8 + y) * {W} + bx * 8 + x] - 128.0;
    }
  }
  for (int y = 0; y < 8; y++) dct8(blk + y * 8, 1);
  for (int x = 0; x < 8; x++) dct8(blk + x, 8);
}

void quantize() {
  for (int i = 0; i < 64; i++) {
    float q; q = blk[i] / (float) qtab[i];
    int v;
    if (q >= 0.0) v = (int) (q + 0.5);
    else v = 0 - (int) (0.5 - q);
    coef[i] = (float) v;
  }
}

void zigzag_init() {
  int i; i = 0;
  for (int s = 0; s < 15; s++) {
    if (s % 2 == 0) {
      for (int y = s; y >= 0; y--) {
        int x; x = s - y;
        if (y < 8 && x < 8) { zz[i] = y * 8 + x; i++; }
      }
    } else {
      for (int x = s; x >= 0; x--) {
        int y; y = s - x;
        if (y < 8 && x < 8) { zz[i] = y * 8 + x; i++; }
      }
    }
  }
}

void qtab_init() {
  for (int i = 0; i < 64; i++) {
    int y; y = i / 8;
    int x; x = i % 8;
    qtab[i] = 16 + 4 * (x + y) + x * y;
  }
}

// serialize one quantized block through the zigzag order
void emit_block(int b) {
  for (int i = 0; i < 64; i++) {
    int v; v = (int) coef[zz[i]];
    stream[b * 64 + i] = v & 255;
  }
}

// zero run-length encoding of the whole coefficient stream
int rle_encode(int n) {
  int o; o = 0;
  int i; i = 0;
  while (i < n) {
    if (stream[i] == 0) {
      int run; run = 0;
      while (i < n && stream[i] == 0 && run < 255) { run++; i++; }
      rle[o] = 0; rle[o + 1] = run & 255; o += 2;
    } else {
      rle[o] = stream[i]; o++; i++;
    }
  }
  return o;
}

int checksum(char* p, int n) {
  int h; h = 17;
  for (int i = 0; i < n; i++) h = (h * 31 + p[i]) & 0xFFFFFF;
  return h;
}

int main() {
  lcg_state = 20100913;
  zigzag_init();
  qtab_init();
  gen_image();
  sobel();
  int nblocks; nblocks = ({W} / 8) * ({H} / 8);
  for (int by = 0; by < {H} / 8; by++) {
    for (int bx = 0; bx < {W} / 8; bx++) {
      dct_block(bx, by);
      quantize();
      emit_block(by * ({W} / 8) + bx);
    }
  }
  int raw; raw = nblocks * 64;
  int packed; packed = rle_encode(raw);
  print_str("img=");   print_int(checksum((char*) img, {PIXELS}));
  print_str(" edges="); print_int(checksum((char*) edges, {PIXELS}));
  print_str(" coef=");  print_int(checksum((char*) stream, raw));
  print_str(" raw=");   print_int(raw);
  print_str(" rle=");   print_int(packed);
  print_char('\n');
  if (packed >= raw) return 1;
  return 0;
}
|}

let image_pipeline ?(width = 64) ?(height = 64) () =
  if width <= 0 || height <= 0 || width mod 8 <> 0 || height mod 8 <> 0 then
    invalid_arg "Apps.image_pipeline: dimensions must be positive multiples of 8";
  Tq_minic.Driver.fill_template
    [
      ("{W}", string_of_int width);
      ("{H}", string_of_int height);
      ("{PIXELS}", string_of_int (width * height));
      ("{STREAM}", string_of_int (width * height * 2));
      ("{PI}", Printf.sprintf "%.17g" Float.pi);
    ]
    template

let image_pipeline_program ?width ?height () =
  Tq_rt.Rt.link
    [
      Tq_minic.Driver.compile_unit ~image:"imgpipe"
        (image_pipeline ?width ?height ());
    ]


(* ---------- pointer chase ---------- *)

let chase_template =
  {|
// Locality microbenchmark: walk the same pool of 16-byte nodes linked
// sequentially vs in a shuffled order.  Same work, same bytes -- wildly
// different cache behaviour.

struct node {
  int v;
  struct node* next;
};

struct node pool[{N}];
int perm[{N}];
int lcg_state;

int lcg() {
  lcg_state = lcg_state * 1103515245 + 12345;
  int v; v = (lcg_state >> 16) & 0x7FFFFFFF;
  return v;
}

void init_pool() {
  for (int i = 0; i < {N}; i++) {
    pool[i].v = i & 1023;
    pool[i].next = (struct node*) 0;
  }
}

void link_seq() {
  for (int i = 0; i < {N} - 1; i++) pool[i].next = &pool[i + 1];
  pool[{N} - 1].next = (struct node*) 0;
}

// Fisher-Yates permutation, then link along it
void link_shuffled() {
  for (int i = 0; i < {N}; i++) perm[i] = i;
  for (int i = {N} - 1; i >= 1; i--) {
    int j; j = lcg() % (i + 1);
    int t; t = perm[i]; perm[i] = perm[j]; perm[j] = t;
  }
  for (int i = 0; i < {N} - 1; i++) pool[perm[i]].next = &pool[perm[i + 1]];
  pool[perm[{N} - 1]].next = (struct node*) 0;
}

int walk_seq(int rounds) {
  int s; s = 0;
  for (int r = 0; r < rounds; r++) {
    struct node* p; p = &pool[0];
    while (p != (struct node*) 0) { s += p->v; p = p->next; }
  }
  return s;
}

int walk_shuffled(int rounds) {
  int s; s = 0;
  for (int r = 0; r < rounds; r++) {
    struct node* p; p = &pool[perm[0]];
    while (p != (struct node*) 0) { s += p->v; p = p->next; }
  }
  return s;
}

int main() {
  lcg_state = 424243;
  init_pool();
  link_seq();
  int a; a = walk_seq({R});
  link_shuffled();
  int b; b = walk_shuffled({R});
  print_str("seq="); print_int(a);
  print_str(" shuffled="); print_int(b);
  print_char('\n');
  if (a != b) return 1;
  return 0;
}
|}

let pointer_chase ?(nodes = 4096) ?(rounds = 4) () =
  if nodes < 2 || rounds < 1 then
    invalid_arg "Apps.pointer_chase: need nodes >= 2 and rounds >= 1";
  Tq_minic.Driver.fill_template
    [ ("{N}", string_of_int nodes); ("{R}", string_of_int rounds) ]
    chase_template

let pointer_chase_program ?nodes ?rounds () =
  Tq_rt.Rt.link
    [ Tq_minic.Driver.compile_unit ~image:"chase" (pointer_chase ?nodes ?rounds ()) ]
