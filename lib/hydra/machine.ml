(** Shared runtime machinery: the flat heap, call frames, the run state,
    and the evaluation of ALU / builtin operations on {!Ir.Value} values.
    Both the sequential interpreter and the TLS simulator build on this. *)

open Ir

exception Trap of string

module Memory = struct
  type t = {
    mutable cells : Value.t array;
    mutable brk : int; (* next free address *)
  }

  let create ~heap_base =
    { cells = Array.make (max 1024 (heap_base * 2)) Value.zero; brk = heap_base }

  let ensure t addr =
    if addr >= Array.length t.cells then begin
      let n = ref (Array.length t.cells) in
      while addr >= !n do
        n := !n * 2
      done;
      let cells = Array.make !n Value.zero in
      Array.blit t.cells 0 cells 0 (Array.length t.cells);
      t.cells <- cells
    end

  let load t addr =
    if addr < 0 then raise (Trap "load from a negative address");
    if addr >= Array.length t.cells then Value.zero else t.cells.(addr)

  let store t addr v =
    if addr < 0 then raise (Trap "store to a negative address");
    ensure t addr;
    t.cells.(addr) <- v

  (** Allocate [n] cells of element [kind] (initialized to the kind's
      zero); cell [base-1] holds the length. *)
  let alloc ?(kind = `Int) t n =
    if n < 0 then invalid_arg "Memory.alloc: negative size";
    let hdr = t.brk in
    t.brk <- t.brk + n + 1;
    ensure t (t.brk - 1);
    t.cells.(hdr) <- Value.Int n;
    (match kind with
    | `Int -> ()
    | `Float ->
        for i = hdr + 1 to hdr + n do
          t.cells.(i) <- Value.Float 0.
        done);
    hdr + 1

end

type frame = {
  fidx : int;
  slots : Value.t array;
  regs : Value.t array;
  ret_pc : int;
  ret_reg : Native.reg option;
  uid : int; (* unique frame id, for local-variable timestamps *)
}

(** The state of one program run, shared by the sequential loop and the
    speculative CPUs: committed memory, the global clock, the dynamic
    instruction count (checked against [fuel]) and the printed values. *)
type run = {
  prog : Native.program;
  mem : Memory.t;
  fuel : int;
  mutable cycles : int;
  mutable icount : int;
  mutable output : Value.t list; (* newest first *)
  mutable last_uid : int; (* uid of the newest frame *)
}

exception Out_of_fuel of int

let start ~fuel (prog : Native.program) =
  {
    prog;
    mem = Memory.create ~heap_base:prog.Native.heap_base;
    fuel;
    cycles = 0;
    icount = 0;
    output = [];
    last_uid = 0;
  }

(* copy the argument registers [args] of a call into the callee's slots *)
let rec pass_args slots regs i = function
  | [] -> ()
  | r :: rest ->
      slots.(i) <- regs.(r);
      pass_args slots regs (i + 1) rest

let rec arg_values regs = function
  | [] -> []
  | r :: rest -> regs.(r) :: arg_values regs rest

(** A fresh frame for function [fidx], its first slots holding the
    values of the caller's registers [args]. *)
let new_frame r fidx ret_pc ret_reg args caller_regs =
  let f = r.prog.Native.funcs.(fidx) in
  let slots = Array.make (max f.Native.nslots 1) Value.zero in
  pass_args slots caller_regs 0 args;
  r.last_uid <- r.last_uid + 1;
  {
    fidx;
    slots;
    regs = Array.make (max f.Native.nregs 1) Value.zero;
    ret_pc;
    ret_reg;
    uid = r.last_uid;
  }

let eval_binop (op : Tac.binop) (a : Value.t) (b : Value.t) : Value.t =
  let open Value in
  let ii f = Int (f (to_int a) (to_int b)) in
  let ff f = Float (f (to_float a) (to_float b)) in
  let icmp f = Int (if f (compare (to_int a) (to_int b)) 0 then 1 else 0) in
  let fcmp f = Int (if f (compare (to_float a) (to_float b)) 0 then 1 else 0) in
  match op with
  | Tac.Add -> ii ( + )
  | Tac.Sub -> ii ( - )
  | Tac.Mul -> ii ( * )
  | Tac.Div ->
      if to_int b = 0 then raise (Trap "integer division by zero") else ii ( / )
  | Tac.Rem ->
      if to_int b = 0 then raise (Trap "integer remainder by zero") else ii Stdlib.( mod )
  | Tac.BAnd -> ii ( land )
  | Tac.BOr -> ii ( lor )
  | Tac.BXor -> ii ( lxor )
  | Tac.Shl -> ii ( lsl )
  | Tac.Shr -> ii ( asr )
  | Tac.Eq -> icmp ( = )
  | Tac.Ne -> icmp ( <> )
  | Tac.Lt -> icmp ( < )
  | Tac.Le -> icmp ( <= )
  | Tac.Gt -> icmp ( > )
  | Tac.Ge -> icmp ( >= )
  | Tac.FAdd -> ff ( +. )
  | Tac.FSub -> ff ( -. )
  | Tac.FMul -> ff ( *. )
  | Tac.FDiv -> ff ( /. )
  | Tac.FEq -> fcmp ( = )
  | Tac.FNe -> fcmp ( <> )
  | Tac.FLt -> fcmp ( < )
  | Tac.FLe -> fcmp ( <= )
  | Tac.FGt -> fcmp ( > )
  | Tac.FGe -> fcmp ( >= )

let eval_unop (op : Tac.unop) (a : Value.t) : Value.t =
  let open Value in
  match op with
  | Tac.Neg -> Int (-to_int a)
  | Tac.FNeg -> Float (-.to_float a)
  | Tac.LNot -> Int (if to_int a = 0 then 1 else 0)
  | Tac.I2F -> Float (Float.of_int (to_int a))
  | Tac.F2I -> Int (Float.to_int (to_float a))

let eval_builtin (b : Tac.builtin) (args : Value.t list) : Value.t =
  let open Value in
  match (b, args) with
  | Tac.Sqrt, [ x ] -> Float (Float.sqrt (to_float x))
  | Tac.Sin, [ x ] -> Float (Float.sin (to_float x))
  | Tac.Cos, [ x ] -> Float (Float.cos (to_float x))
  | Tac.Exp, [ x ] -> Float (Float.exp (to_float x))
  | Tac.Log, [ x ] -> Float (Float.log (to_float x))
  | Tac.FAbs, [ x ] -> Float (Float.abs (to_float x))
  | Tac.Floor, [ x ] -> Float (Float.floor (to_float x))
  | Tac.IAbs, [ x ] -> Int (abs (to_int x))
  | Tac.IMin, [ x; y ] -> Int (min (to_int x) (to_int y))
  | Tac.IMax, [ x; y ] -> Int (max (to_int x) (to_int y))
  | Tac.FMin, [ x; y ] -> Float (Float.min (to_float x) (to_float y))
  | Tac.FMax, [ x; y ] -> Float (Float.max (to_float x) (to_float y))
  | _ -> raise (Trap "builtin arity mismatch")

(** Identity element for a privatized reduction accumulator. *)
let reduction_identity : Cfg.Scalar.reduction_op -> Value.t = function
  | Cfg.Scalar.RAdd -> Value.Int 0
  | Cfg.Scalar.RFAdd -> Value.Float 0.
  | Cfg.Scalar.RMin -> Value.Int max_int
  | Cfg.Scalar.RMax -> Value.Int min_int
  | Cfg.Scalar.RFMin -> Value.Float infinity
  | Cfg.Scalar.RFMax -> Value.Float neg_infinity

let reduction_merge (op : Cfg.Scalar.reduction_op) (a : Value.t) (b : Value.t) :
    Value.t =
  let open Value in
  match op with
  | Cfg.Scalar.RAdd -> Int (to_int a + to_int b)
  | Cfg.Scalar.RFAdd -> Float (to_float a +. to_float b)
  | Cfg.Scalar.RMin -> Int (min (to_int a) (to_int b))
  | Cfg.Scalar.RMax -> Int (max (to_int a) (to_int b))
  | Cfg.Scalar.RFMin -> Float (Float.min (to_float a) (to_float b))
  | Cfg.Scalar.RFMax -> Float (Float.max (to_float a) (to_float b))
