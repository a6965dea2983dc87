(** Native-code generation — the microJIT stand-in.

    Three compilation modes, mirroring the Jrpm life cycle (paper Fig. 1):

    - {b Plain}: straight linearization, no annotations. Baseline
      sequential code (the denominator of the Fig. 6 slowdowns).
    - {b Annotated}: TEST annotation instructions inserted around every
      traced candidate STL — [sloop]/[eloop] on loop entry/exit edges,
      [eoi] on back edges, [lwl]/[swl] on named-local accesses inside
      traced loops, and read-statistics calls on loop exits. With
      [optimized = true] the two paper optimizations apply: only the
      first load of a local per basic block is annotated, and
      read-statistics calls are hoisted to the outermost loop of an
      only-child chain (paper Sec. 5.1).
    - {b Tls}: speculative thread code for the selected STLs — carried
      locals are globalized to reserved heap cells (loads/stores inside
      the loop body rewritten to heap accesses), inductor / reduction /
      invariant metadata is emitted as an {!Hydra.Native.stl_plan}, and
      TLS region markers are placed on loop entry / back / exit edges. *)

type mode =
  | Plain
  | Annotated of { optimized : bool }
  | Tls of { selected : int list }  (** STL ids to recompile speculatively *)

val generate : mode:mode -> Stl_table.t -> Ir.Tac.program -> Hydra.Native.program

(** What one execution of an annotation instruction stands for in the
    other two builds. An annotated build is the plain build plus its
    annotations plus one closing [jump] per edge stub, and it differs
    from the base build only in the [lwl]s that per-block dedup drops
    and the read-statistics calls that hoisting moves. Sequential cost
    is static per instruction ({!Hydra.Native.instr_cost}), so with
    [n pc] executions of each site,
    [plain = this - Σ n·plain_gap] and
    [base = this + Σ n·(base_locals + base_read_stats)], exactly. *)
type site = {
  pc : int;               (** program-wide PC of an annotation instruction *)
  plain_gap : int;
      (** cycles the plain build lacks per execution: the annotation's
          own cost, plus the closing [jump] on a stub's first one *)
  base_locals : int;
      (** base-minus-this [lwl] cycles per execution: on a surviving
          [lwl], one [lwl] per same-slot load later in its block *)
  base_read_stats : int;
      (** base-minus-this read-statistics cycles per execution, on the
          first annotation of a stub or return prefix (signed: hoisting
          can read more often than the base build) *)
}

val generate_with_sites :
  mode:mode -> Stl_table.t -> Ir.Tac.program -> Hydra.Native.program * site array
(** {!generate} plus the build's site table, sorted by PC: one entry per
    annotation instruction of an [Annotated] build (so none for [Plain]
    or [Tls], and zero [base_*] fields for the base build itself). The
    program is exactly {!generate}'s. *)

val compile_source : mode:mode -> string -> Hydra.Native.program * Stl_table.t
(** Convenience: parse + typecheck + lower + build STL table + generate. *)
