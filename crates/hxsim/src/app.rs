//! The application callback surface shared by every simulation backend.
//!
//! Traffic generators implement [`Application`]; the engines (packet-level
//! [`crate::Engine`], flow-level [`crate::FlowEngine`]) drive the callbacks,
//! each through one private path, and execute the [`Cmd`]s they enqueue
//! through [`Ctx`]. Keeping this surface engine-agnostic is what makes the
//! two backends drop-in interchangeable (see [`crate::simulate`]).

use crate::Time;

/// Description of a delivered message, passed to application callbacks.
#[derive(Clone, Copy, Debug)]
pub struct MsgInfo {
    pub src_rank: u32,
    pub dst_rank: u32,
    pub bytes: u64,
    pub tag: u64,
}

/// Commands an application can issue from its callbacks.
#[derive(Clone, Copy, Debug)]
pub enum Cmd {
    /// Send `bytes` from rank `src` to rank `dst`, labelled `tag`.
    Send {
        src: u32,
        dst: u32,
        bytes: u64,
        tag: u64,
    },
    /// Simulate `ps` of local computation on `rank`, then call
    /// [`Application::on_compute_done`] with `tag`.
    Compute { rank: u32, ps: Time, tag: u64 },
}

/// Context handed to application callbacks. Commands are buffered and
/// executed by the engine after the callback returns.
pub struct Ctx<'a> {
    now: Time,
    cmds: &'a mut Vec<Cmd>,
}

impl<'a> Ctx<'a> {
    /// Engine-side constructor: callbacks at simulated time `now` push
    /// their commands into `cmds`.
    pub(crate) fn new(now: Time, cmds: &'a mut Vec<Cmd>) -> Self {
        Self { now, cmds }
    }

    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    #[inline]
    pub fn send(&mut self, src: u32, dst: u32, bytes: u64, tag: u64) {
        assert!(bytes > 0, "zero-byte sends are not modelled");
        self.cmds.push(Cmd::Send {
            src,
            dst,
            bytes,
            tag,
        });
    }

    #[inline]
    pub fn compute(&mut self, rank: u32, ps: Time, tag: u64) {
        self.cmds.push(Cmd::Compute { rank, ps, tag });
    }
}

/// Traffic generator interface. All callbacks run at simulated time
/// `ctx.now()`.
pub trait Application {
    /// Called once at time 0 to kick off traffic.
    fn start(&mut self, ctx: &mut Ctx);

    /// A message has been fully delivered to `info.dst_rank`.
    fn on_message(&mut self, ctx: &mut Ctx, info: MsgInfo);

    /// All packets of the message have left the source NIC (the local send
    /// buffer may be reused — MPI-style local completion).
    fn on_send_complete(&mut self, _ctx: &mut Ctx, _info: MsgInfo) {}

    /// A [`Cmd::Compute`] issued by this application finished.
    fn on_compute_done(&mut self, _ctx: &mut Ctx, _rank: u32, _tag: u64) {}
}
