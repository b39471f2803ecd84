(** A fixed-size pool of OCaml 5 domains draining one bounded FIFO.

    Every submit, take and idle wait goes through one mutex with two
    conditions: workers park on [not_empty], submitters at the cap park
    on [not_full]. The lock is held only to move a task in or out of the
    queue, never while a task runs. One lock suffices: the 4-domain
    anti-scaling once blamed on it was minor-GC barriers (see
    [minor_words]), not the queue.

    The queue bound is the backpressure mechanism: [submit] blocks once
    [queue_cap] jobs are waiting, so a fast producer cannot outrun the
    workers by an unbounded margin. Each worker owns a private context
    built by [mk_ctx] *inside* its own domain — the service layer keeps
    its per-worker machine caches there, so no simulated machine is ever
    touched by two domains. *)

type 'a state = Pending | Done of 'a | Failed of exn

type 'a future = {
  f_mutex : Mutex.t;
  f_cond : Condition.t;
  mutable f_state : 'a state;
}

let fulfil fut v =
  Mutex.lock fut.f_mutex;
  fut.f_state <- v;
  Condition.broadcast fut.f_cond;
  Mutex.unlock fut.f_mutex

let await fut =
  Mutex.lock fut.f_mutex;
  let rec wait () =
    match fut.f_state with
    | Pending ->
      Condition.wait fut.f_cond fut.f_mutex;
      wait ()
    | Done v ->
      Mutex.unlock fut.f_mutex;
      v
    | Failed exn ->
      Mutex.unlock fut.f_mutex;
      raise exn
  in
  wait ()

let peek fut =
  Mutex.lock fut.f_mutex;
  let st = fut.f_state in
  Mutex.unlock fut.f_mutex;
  match st with Pending -> None | Done v -> Some (Ok v) | Failed e -> Some (Error e)

type 'ctx t = {
  jobs : int;
  queue_cap : int;
  q : ('ctx -> unit) Queue.t;  (** FIFO: batch order is arrival order *)
  mutex : Mutex.t;  (** guards [q] and [closing] *)
  not_empty : Condition.t;  (** workers park here when [q] is empty *)
  not_full : Condition.t;  (** submitters park here at the cap *)
  mutable closing : bool;
  mutable workers : unit Domain.t array;
}

(* How many workers a request for [n] actually gets: at least one, at most
   the hardware's recommended domain count — except that the ceiling never
   drops below 4, so a 4-way determinism check still exercises the
   concurrent path on small CI hosts (domains oversubscribe harmlessly). *)
let clamp_jobs n = max 1 (min n (max 4 (Domain.recommended_domain_count ())))

(* The minor heap is domain-local in OCaml 5 and spawned domains start at
   the runtime default (256k words). Interpreter workloads allocate hard,
   and every minor collection is a stop-the-world rendezvous across *all*
   domains — with several busy workers the default period makes the pool
   spend most of its time parked at barriers instead of executing jobs
   (measured 3x on the 32-job batch bench at 4 domains). Each worker
   therefore grows its own minor heap before taking work; [Gc.set] only
   resizes the calling domain, so this must run in the worker body. *)
let minor_words = 4 * 1024 * 1024

(* The next task, or [None] once the pool is closing and [q] is drained:
   queued work always runs before a worker exits. *)
let take pool =
  Mutex.lock pool.mutex;
  while Queue.is_empty pool.q && not pool.closing do
    Condition.wait pool.not_empty pool.mutex
  done;
  let task = Queue.take_opt pool.q in
  if Option.is_some task then Condition.signal pool.not_full;
  Mutex.unlock pool.mutex;
  task

let worker pool mk_ctx () =
  let g = Gc.get () in
  if g.Gc.minor_heap_size < minor_words then
    Gc.set { g with Gc.minor_heap_size = minor_words };
  let ctx = mk_ctx () in
  let rec loop () =
    match take pool with
    | Some task ->
      task ctx;
      loop ()
    | None -> ()
  in
  loop ()

let create ?(queue_cap = 64) ~jobs ~mk_ctx () =
  if queue_cap < 1 then invalid_arg "Pool.create: queue_cap must be positive";
  let jobs = clamp_jobs jobs in
  let pool =
    {
      jobs;
      queue_cap;
      q = Queue.create ();
      mutex = Mutex.create ();
      not_empty = Condition.create ();
      not_full = Condition.create ();
      closing = false;
      workers = [||];
    }
  in
  pool.workers <- Array.init jobs (fun _ -> Domain.spawn (worker pool mk_ctx));
  pool

let jobs t = t.jobs

(* [notify] runs on the worker after the future is fulfilled — the hook a
   select loop uses to wake itself (write to a self-pipe) when a result
   becomes peekable. It must never kill the worker, so exceptions are
   swallowed. *)
let mk_task ?notify f fut ctx =
  (match f ctx with
  | v -> fulfil fut (Done v)
  | exception exn -> fulfil fut (Failed exn));
  match notify with
  | None -> ()
  | Some g -> ( try g () with _ -> ())

let mk_future () =
  { f_mutex = Mutex.create (); f_cond = Condition.create (); f_state = Pending }

(* Called with [t.mutex] held: the [closing] check and the push form one
   step against [shutdown], so an admitted task is always drained. *)
let push_locked t task =
  Queue.add task t.q;
  Condition.signal t.not_empty

let submit ?notify t f =
  let fut = mk_future () in
  let task = mk_task ?notify f fut in
  Mutex.lock t.mutex;
  while Queue.length t.q >= t.queue_cap && not t.closing do
    Condition.wait t.not_full t.mutex
  done;
  if t.closing then begin
    Mutex.unlock t.mutex;
    invalid_arg "Pool.submit: pool is shut down"
  end;
  push_locked t task;
  Mutex.unlock t.mutex;
  fut

(* Non-blocking admission: [None] when the queue is full or the pool is
   closing, instead of stalling the caller. A server's accept loop must
   never block on its own backpressure — it sheds instead. *)
let try_submit ?notify t f =
  let fut = mk_future () in
  let task = mk_task ?notify f fut in
  Mutex.lock t.mutex;
  if t.closing || Queue.length t.q >= t.queue_cap then begin
    Mutex.unlock t.mutex;
    None
  end
  else begin
    push_locked t task;
    Mutex.unlock t.mutex;
    Some fut
  end

(* Stop accepting work, let the workers drain what is queued, join them. *)
let shutdown t =
  Mutex.lock t.mutex;
  t.closing <- true;
  Condition.broadcast t.not_empty;
  Condition.broadcast t.not_full;
  Mutex.unlock t.mutex;
  Array.iter Domain.join t.workers
