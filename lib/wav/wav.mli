(** RIFF/WAVE PCM16 codec (host side).

    Used to synthesize the case study's input audio and to decode the
    32-channel output the simulated wfs application writes; the MiniC
    application contains its own wav_load/wav_store mirroring this format,
    and tests check the two agree byte-for-byte. *)

type t = {
  sample_rate : int;
  channels : float array array;
      (** [channels.(c).(i)] is sample [i] of channel [c], in [-1, 1];
          all channels must have equal length *)
}

val encode : t -> string
(** Canonical 44-byte-header RIFF/WAVE, 16-bit little-endian PCM,
    interleaved.  Samples are clamped to [-1, 1] and scaled by 32767.
    @raise Invalid_argument on empty or ragged channel data. *)

val decode : string -> (t, string) result
(** Accepts the canonical layout produced by [encode] (and by the simulated
    application): "fmt " and "data" chunks, PCM16; other chunks are
    skipped. *)
